// Minimal leveled logging.
//
// Protocol code logs through this facade; tests run silent by default and a
// bench/example can raise the level to watch a timeline.  Thread-safe:
// SocketRuntime loop threads and application threads may log at once.
#pragma once

#include <sstream>
#include <string>

#include "util/sync.h"

namespace corona {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level);
  LogLevel level() const;

  // Writes one line if `level` is enabled.  `tag` identifies the subsystem.
  void write(LogLevel level, const std::string& tag, const std::string& text);

 private:
  Logger() = default;
  // The logger is shared by every SocketRuntime loop thread in a process
  // (and the application's own threads), so line assembly must be
  // serialized; it never feeds back into protocol state.
  mutable Mutex mu_;
  LogLevel level_ CORONA_GUARDED_BY(mu_) = LogLevel::kWarn;
};

namespace logdetail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace logdetail

#define CORONA_LOG(lvl_, tag_, ...)                                     \
  do {                                                                  \
    if (static_cast<int>(lvl_) >=                                       \
        static_cast<int>(::corona::Logger::instance().level())) {       \
      ::corona::Logger::instance().write(                               \
          lvl_, tag_, ::corona::logdetail::concat(__VA_ARGS__));        \
    }                                                                   \
  } while (0)

#define LOG_TRACE(tag, ...) CORONA_LOG(::corona::LogLevel::kTrace, tag, __VA_ARGS__)
#define LOG_DEBUG(tag, ...) CORONA_LOG(::corona::LogLevel::kDebug, tag, __VA_ARGS__)
#define LOG_INFO(tag, ...) CORONA_LOG(::corona::LogLevel::kInfo, tag, __VA_ARGS__)
#define LOG_WARN(tag, ...) CORONA_LOG(::corona::LogLevel::kWarn, tag, __VA_ARGS__)
#define LOG_ERROR(tag, ...) CORONA_LOG(::corona::LogLevel::kError, tag, __VA_ARGS__)

}  // namespace corona
