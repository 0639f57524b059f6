#pragma once

/// \file logging.hpp
/// Minimal leveled logger. Thread-safe, writes to stderr, level settable at
/// runtime (RAPIDS_LOG_LEVEL environment variable or set_level()).

#include <sstream>
#include <string>

namespace rapids::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Set the global minimum level that will be emitted.
void set_level(Level level);

/// Current global level (default kWarn, overridable via RAPIDS_LOG_LEVEL=debug|info|warn|error|off).
Level level();

/// Emit one line at `level` tagged with `subsystem`. No-op below the global level.
void write(Level level, const std::string& subsystem, const std::string& message);

namespace detail {
template <typename... Args>
std::string format_args(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void debug(const std::string& subsystem, Args&&... args) {
  if (level() <= Level::kDebug)
    write(Level::kDebug, subsystem, detail::format_args(std::forward<Args>(args)...));
}

template <typename... Args>
void info(const std::string& subsystem, Args&&... args) {
  if (level() <= Level::kInfo)
    write(Level::kInfo, subsystem, detail::format_args(std::forward<Args>(args)...));
}

template <typename... Args>
void warn(const std::string& subsystem, Args&&... args) {
  if (level() <= Level::kWarn)
    write(Level::kWarn, subsystem, detail::format_args(std::forward<Args>(args)...));
}

template <typename... Args>
void error(const std::string& subsystem, Args&&... args) {
  if (level() <= Level::kError)
    write(Level::kError, subsystem, detail::format_args(std::forward<Args>(args)...));
}

}  // namespace rapids::log
