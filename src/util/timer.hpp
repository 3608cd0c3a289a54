// Wall-clock measurement helpers used for PCt / LFTDt style timings.
#pragma once

#include <chrono>

namespace ibvs {

/// Monotonic stopwatch. Construction starts it; elapsed_* reads do not stop it.
class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  [[nodiscard]] std::chrono::nanoseconds elapsed() const noexcept {
    return Clock::now() - start_;
  }
  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(elapsed()).count();
  }
  [[nodiscard]] double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(elapsed()).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace ibvs
