// Minimal leveled logger.
//
// Quiet by default (tests and benches stay clean); examples raise the level
// to narrate what the system is doing. Not thread-safe by design: every
// simulated event runs on the one thread that drives sim::EventLoop.
#pragma once

#include <sstream>
#include <string>

namespace gmmcs {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global log configuration.
class Log {
 public:
  static LogLevel level();
  static void set_level(LogLevel level);
  /// Emits one line at the given level (no-op if below threshold).
  static void write(LogLevel level, const std::string& component, const std::string& message);
};

/// Stream-style helper: LogLine(LogLevel::kInfo, "broker") << "routed " << n;
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine() { Log::write(level_, component_, out_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <class T>
  LogLine& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream out_;
};

#define GMMCS_LOG(level, component) ::gmmcs::LogLine((level), (component))
#define GMMCS_INFO(component) GMMCS_LOG(::gmmcs::LogLevel::kInfo, (component))
#define GMMCS_DEBUG(component) GMMCS_LOG(::gmmcs::LogLevel::kDebug, (component))
#define GMMCS_WARN(component) GMMCS_LOG(::gmmcs::LogLevel::kWarn, (component))

}  // namespace gmmcs
