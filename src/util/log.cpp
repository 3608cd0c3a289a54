#include "util/log.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace ibvs {

std::atomic<int> Log::level_{Log::kUninitialized};

namespace {
std::mutex g_emit_mutex;

constexpr std::string_view level_tag(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
    if (ca != b[i]) return false;
  }
  return true;
}

/// Monotonic epoch captured on first emission; emitted timestamps are
/// seconds since then.
std::chrono::steady_clock::time_point log_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// Small per-thread ordinal (1, 2, ...) — stable within a run, readable in
/// interleaved output, unlike the opaque std::thread::id hash.
std::uint64_t thread_ordinal() noexcept {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

std::optional<LogLevel> Log::parse_level(std::string_view text) noexcept {
  if (iequals(text, "trace")) return LogLevel::kTrace;
  if (iequals(text, "debug")) return LogLevel::kDebug;
  if (iequals(text, "info")) return LogLevel::kInfo;
  if (iequals(text, "warn") || iequals(text, "warning")) {
    return LogLevel::kWarn;
  }
  if (iequals(text, "error")) return LogLevel::kError;
  if (iequals(text, "off") || iequals(text, "none")) return LogLevel::kOff;
  return std::nullopt;
}

int Log::init_from_env() noexcept {
  int level = static_cast<int>(LogLevel::kWarn);
  if (const char* env = std::getenv("IBVS_LOG_LEVEL")) {
    if (const auto parsed = parse_level(env)) {
      level = static_cast<int>(*parsed);
    }
  }
  // Racing first uses agree on the same value (the env cannot change
  // between them), so a plain store is fine — unless set_level() already
  // won the race, which must not be overwritten.
  int expected = kUninitialized;
  if (level_.compare_exchange_strong(expected, level,
                                     std::memory_order_relaxed)) {
    return level;
  }
  return expected;
}

void Log::emit(LogLevel level, std::string_view component,
               std::string_view message) {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    log_epoch())
          .count();
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "[%11.6f] [t%llu] ", seconds,
                static_cast<unsigned long long>(thread_ordinal()));
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::clog << prefix << "[" << level_tag(level) << "] " << component << ": "
            << message << '\n';
}

}  // namespace ibvs
