// Minimal leveled logging to stderr.
//
// The synthesis pipeline emits progress at `info` level (one line per
// dichotomic-search probe, per bound method, per SAT call) so long bench runs
// are observable; default level is `warn` to keep library use quiet.
#pragma once

#include <sstream>
#include <string>

namespace janus {

enum class log_level { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

/// Set the global log threshold (messages below it are dropped).
void set_log_level(log_level level);
[[nodiscard]] log_level get_log_level();

namespace detail {
void log_emit(log_level level, const std::string& message);
}  // namespace detail

/// One log statement's buffer; emitted on destruction. Built only through
/// JANUS_LOG, and only when the level is enabled.
class log_line {
 public:
  explicit log_line(log_level level) : level_(level) {}
  log_line(const log_line&) = delete;
  log_line& operator=(const log_line&) = delete;
  ~log_line() { detail::log_emit(level_, os_.str()); }

  template <typename T>
  log_line& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  log_level level_;
  std::ostringstream os_;
};

}  // namespace janus

/// Stream-style log statement: JANUS_LOG(info) << "probe " << size;
/// Below the threshold it costs one level load: no stream is built and no
/// operand is evaluated. The macro ends in an if/else, so brace any `if`
/// whose body is a JANUS_LOG statement.
#define JANUS_LOG(level)                                      \
  if (::janus::log_level::level < ::janus::get_log_level()) { \
  } else                                                      \
    ::janus::log_line(::janus::log_level::level)
