// Minimal leveled logger for the ibvswitch library.
//
// The library is used both interactively (examples) and inside tight
// benchmark loops, so logging is cheap when disabled: the level check is a
// single relaxed atomic load and message formatting is lazy (stream built
// only when the record is emitted).
//
// The initial level comes from the IBVS_LOG_LEVEL environment variable
// (trace/debug/info/warn/error/off, case-insensitive), read on the first
// level query; set_level() overrides it at any time. Emitted records carry a
// monotonic seconds-since-start timestamp and a small per-thread ordinal so
// interleaved thread-pool output stays attributable.
#pragma once

#include <atomic>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace ibvs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Global logger configuration. Thread safe.
class Log {
 public:
  static void set_level(LogLevel level) noexcept {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  static LogLevel level() noexcept {
    return static_cast<LogLevel>(current_level());
  }
  static bool enabled(LogLevel level) noexcept {
    return static_cast<int>(level) >= current_level();
  }

  /// Parses a level name ("trace".."error", "off"), case-insensitive.
  static std::optional<LogLevel> parse_level(std::string_view text) noexcept;

  /// Emits one record; serializes concurrent writers.
  static void emit(LogLevel level, std::string_view component,
                   std::string_view message);

 private:
  static int current_level() noexcept {
    const int v = level_.load(std::memory_order_relaxed);
    return v == kUninitialized ? init_from_env() : v;
  }
  /// Slow path: applies IBVS_LOG_LEVEL (or the default) and returns it.
  static int init_from_env() noexcept;

  static constexpr int kUninitialized = -1;
  static std::atomic<int> level_;
};

namespace detail {
/// Builds the message lazily and emits it on destruction.
class LogRecord {
 public:
  LogRecord(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;
  ~LogRecord() { Log::emit(level_, component_, stream_.str()); }

  template <typename T>
  LogRecord& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace ibvs

#define IBVS_LOG(level, component)                 \
  if (!::ibvs::Log::enabled(level)) {              \
  } else                                           \
    ::ibvs::detail::LogRecord(level, component)

#define IBVS_TRACE(component) IBVS_LOG(::ibvs::LogLevel::kTrace, component)
#define IBVS_DEBUG(component) IBVS_LOG(::ibvs::LogLevel::kDebug, component)
#define IBVS_INFO(component) IBVS_LOG(::ibvs::LogLevel::kInfo, component)
#define IBVS_WARN(component) IBVS_LOG(::ibvs::LogLevel::kWarn, component)
#define IBVS_ERROR(component) IBVS_LOG(::ibvs::LogLevel::kError, component)
