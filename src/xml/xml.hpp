// Minimal XML document model, parser and serializer.
//
// XGSP messages, SOAP envelopes and WSDL-CI descriptors are all XML; this
// module is the shared substrate. It supports the subset those formats
// need: elements, attributes, text content, comments (skipped), XML
// declarations (skipped), CDATA, and the five predefined entities.
// Namespaces are carried as plain prefixed names ("soap:Envelope") — the
// consumers in this codebase use fixed prefixes, as the 2003 toolchains did.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace gmmcs::xml {

/// An XML element: name, ordered attributes, child elements and text.
///
/// Mixed content is simplified: all text nodes of an element are
/// concatenated into `text` (sufficient for the protocol formats here).
class Element {
 public:
  Element() = default;
  explicit Element(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  /// Returns the attribute value or empty string if absent.
  [[nodiscard]] std::string attr(std::string_view name) const;
  [[nodiscard]] bool has_attr(std::string_view name) const;
  Element& set_attr(std::string name, std::string value);
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  /// Appends a child element and returns a reference to it.
  Element& add_child(std::string name);
  Element& add_child(Element child);
  /// Convenience: adds <name>text</name>.
  Element& add_text_child(std::string name, std::string text);

  [[nodiscard]] const std::vector<Element>& children() const { return children_; }
  [[nodiscard]] std::vector<Element>& children() { return children_; }

  /// First child with the given name, or nullptr.
  [[nodiscard]] const Element* child(std::string_view name) const;
  [[nodiscard]] Element* child(std::string_view name);
  /// All children with the given name.
  [[nodiscard]] std::vector<const Element*> children_named(std::string_view name) const;
  /// Text of the first child with the given name, or empty string.
  [[nodiscard]] std::string child_text(std::string_view name) const;
  /// Finds a child matching the local name, ignoring any namespace prefix
  /// ("Envelope" matches "soap:Envelope"). Used by SOAP parsing.
  [[nodiscard]] const Element* child_local(std::string_view local_name) const;

  /// Serializes; indent=true produces pretty-printed output for logs.
  [[nodiscard]] std::string serialize(bool indent = false) const;

 private:
  void serialize_into(std::string& out, int depth, bool indent) const;

  std::string name_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<Element> children_;
};

/// Escapes text content / attribute values (&, <, >, ", ').
std::string escape(std::string_view raw);
/// Resolves the five predefined entities and decimal/hex character refs.
std::string unescape(std::string_view escaped);

/// Strips a namespace prefix: local_name("soap:Body") == "Body".
std::string_view local_name(std::string_view qualified);

/// Parses a document; returns the root element or a parse error.
Result<Element> parse(std::string_view text);

}  // namespace gmmcs::xml
