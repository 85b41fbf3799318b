#include "xml/xml.hpp"

#include <cctype>

#include "common/strings.hpp"

namespace gmmcs::xml {

std::string Element::attr(std::string_view name) const {
  for (const auto& [k, v] : attrs_) {
    if (k == name) return v;
  }
  return {};
}

bool Element::has_attr(std::string_view name) const {
  for (const auto& [k, v] : attrs_) {
    if (k == name) return true;
  }
  return false;
}

Element& Element::set_attr(std::string name, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == name) {
      v = std::move(value);
      return *this;
    }
  }
  attrs_.emplace_back(std::move(name), std::move(value));
  return *this;
}

Element& Element::add_child(std::string name) {
  children_.emplace_back(std::move(name));
  return children_.back();
}

Element& Element::add_child(Element child) {
  children_.push_back(std::move(child));
  return children_.back();
}

Element& Element::add_text_child(std::string name, std::string text) {
  Element& c = add_child(std::move(name));
  c.set_text(std::move(text));
  return c;
}

const Element* Element::child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

Element* Element::child(std::string_view name) {
  for (auto& c : children_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (c.name() == name) out.push_back(&c);
  }
  return out;
}

std::string Element::child_text(std::string_view name) const {
  const Element* c = child(name);
  return c ? c->text() : std::string{};
}

const Element* Element::child_local(std::string_view name) const {
  for (const auto& c : children_) {
    if (local_name(c.name()) == name) return &c;
  }
  return nullptr;
}

std::string_view local_name(std::string_view qualified) {
  std::size_t pos = qualified.find(':');
  return pos == std::string_view::npos ? qualified : qualified.substr(pos + 1);
}

void Element::serialize_into(std::string& out, int depth, bool indent) const {
  auto pad = [&] {
    if (indent) out.append(static_cast<std::size_t>(depth) * 2, ' ');
  };
  pad();
  out += '<';
  out += name_;
  for (const auto& [k, v] : attrs_) {
    out += ' ';
    out += k;
    out += "=\"";
    out += escape(v);
    out += '"';
  }
  if (children_.empty() && text_.empty()) {
    out += "/>";
    if (indent) out += '\n';
    return;
  }
  out += '>';
  out += escape(text_);
  if (!children_.empty()) {
    if (indent) out += '\n';
    for (const auto& c : children_) c.serialize_into(out, depth + 1, indent);
    pad();
  }
  out += "</";
  out += name_;
  out += '>';
  if (indent) out += '\n';
}

std::string Element::serialize(bool indent) const {
  std::string out;
  serialize_into(out, 0, indent);
  return out;
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  std::size_t i = 0;
  while (i < escaped.size()) {
    if (escaped[i] != '&') {
      out += escaped[i++];
      continue;
    }
    std::size_t end = escaped.find(';', i);
    if (end == std::string_view::npos) {
      out += escaped[i++];
      continue;
    }
    std::string_view ent = escaped.substr(i + 1, end - i - 1);
    if (ent == "amp") out += '&';
    else if (ent == "lt") out += '<';
    else if (ent == "gt") out += '>';
    else if (ent == "quot") out += '"';
    else if (ent == "apos") out += '\'';
    else if (!ent.empty() && ent[0] == '#') {
      auto code = (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X'))
                      ? parse_hex_u64(ent.substr(2), 127)
                      : parse_u64(ent.substr(1), 127);
      if (code && *code > 0) out += static_cast<char>(*code);
    } else {
      // Unknown entity: keep verbatim.
      out += '&';
      out += ent;
      out += ';';
    }
    i = end + 1;
  }
  return out;
}

namespace {

/// Recursive-descent XML parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Result<Element> parse_document() {
    skip_misc();
    if (eof()) return fail<Element>("xml: empty document");
    Element root;
    if (!parse_element(root, 0)) return fail<Element>(error_);
    skip_misc();
    if (!eof()) return fail<Element>("xml: trailing content after root element");
    return root;
  }

 private:
  [[nodiscard]] bool eof() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek() const { return s_[pos_]; }
  char get() { return s_[pos_++]; }
  bool match(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  /// Skips whitespace, comments, processing instructions and declarations.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (match("<?")) {
        std::size_t end = s_.find("?>", pos_);
        pos_ = (end == std::string_view::npos) ? s_.size() : end + 2;
      } else if (match("<!--")) {
        std::size_t end = s_.find("-->", pos_);
        pos_ = (end == std::string_view::npos) ? s_.size() : end + 3;
      } else if (match("<!DOCTYPE")) {
        std::size_t end = s_.find('>', pos_);
        pos_ = (end == std::string_view::npos) ? s_.size() : end + 1;
      } else {
        return;
      }
    }
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == ':' || c == '_' || c == '-' ||
           c == '.';
  }

  std::string parse_name() {
    std::size_t start = pos_;
    while (!eof() && is_name_char(peek())) ++pos_;
    return std::string(s_.substr(start, pos_ - start));
  }

  bool err(std::string message) {
    error_ = "xml: " + std::move(message) + " at offset " + std::to_string(pos_);
    return false;
  }

  // Recursion depth cap: the parser descends once per nested element, so
  // hostile input like "<a><a><a>..." otherwise converts wire bytes
  // straight into stack frames until overflow. 64 is far beyond any
  // document the protocols produce (XGSP nests 3-4 deep).
  static constexpr int kMaxDepth = 64;

  bool parse_element(Element& out, int depth) {
    if (depth >= kMaxDepth) return err("element nesting too deep");
    if (eof() || get() != '<') return err("expected '<'");
    std::string name = parse_name();
    if (name.empty()) return err("expected element name");
    out.set_name(name);
    // Attributes.
    while (true) {
      skip_ws();
      if (eof()) return err("unexpected end inside tag");
      if (peek() == '/') {
        ++pos_;
        if (eof() || get() != '>') return err("expected '>' after '/'");
        return true;  // self-closing
      }
      if (peek() == '>') {
        ++pos_;
        break;
      }
      std::string attr_name = parse_name();
      if (attr_name.empty()) return err("expected attribute name");
      skip_ws();
      if (eof() || get() != '=') return err("expected '=' in attribute");
      skip_ws();
      if (eof()) return err("unexpected end in attribute");
      char quote = get();
      if (quote != '"' && quote != '\'') return err("expected quoted attribute value");
      std::size_t start = pos_;
      while (!eof() && peek() != quote) ++pos_;
      if (eof()) return err("unterminated attribute value");
      out.set_attr(std::move(attr_name), unescape(s_.substr(start, pos_ - start)));
      ++pos_;  // closing quote
    }
    // Content.
    std::string text;
    while (true) {
      if (eof()) return err("unexpected end inside element '" + name + "'");
      if (peek() == '<') {
        if (match("</")) {
          std::string close = parse_name();
          if (close != name) return err("mismatched close tag '" + close + "' for '" + name + "'");
          skip_ws();
          if (eof() || get() != '>') return err("expected '>' in close tag");
          out.set_text(std::move(text));
          return true;
        }
        if (match("<!--")) {
          std::size_t end = s_.find("-->", pos_);
          if (end == std::string_view::npos) return err("unterminated comment");
          pos_ = end + 3;
          continue;
        }
        if (match("<![CDATA[")) {
          std::size_t end = s_.find("]]>", pos_);
          if (end == std::string_view::npos) return err("unterminated CDATA");
          text += s_.substr(pos_, end - pos_);
          pos_ = end + 3;
          continue;
        }
        if (match("<?")) {
          std::size_t end = s_.find("?>", pos_);
          if (end == std::string_view::npos) return err("unterminated processing instruction");
          pos_ = end + 2;
          continue;
        }
        Element child;
        if (!parse_element(child, depth + 1)) return false;
        out.add_child(std::move(child));
      } else {
        std::size_t start = pos_;
        while (!eof() && peek() != '<') ++pos_;
        std::string_view chunk = s_.substr(start, pos_ - start);
        // Drop pure inter-element whitespace, keep meaningful text.
        bool all_ws = true;
        for (char c : chunk) {
          if (!std::isspace(static_cast<unsigned char>(c))) {
            all_ws = false;
            break;
          }
        }
        if (!all_ws || out.children().empty()) {
          if (!all_ws) text += unescape(chunk);
        }
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

Result<Element> parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace gmmcs::xml
