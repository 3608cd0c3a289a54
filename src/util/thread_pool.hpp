// Fixed-size thread pool with one blocking fan-out, parallel_ranges().
//
// The routing engines (hop matrix, Min-Hop, fat-tree and Up*/Down* sweeps)
// and the checker's reachability pass are embarrassingly parallel across
// destinations or switches. Each call site passes the smallest range worth
// a hand-off to a worker, so small inputs run inline on the caller and pay
// nothing for the pool. The pool is created on demand and reused (thread
// creation at 11k-node scale would otherwise dominate small runs).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ibvs {

class ThreadPool {
 public:
  /// Ranges one parallel_ranges() call hands each worker at most. Measured
  /// on Min-Hop routing of the 5832-node tree (972 switches) on 4 cores:
  /// four ranges per worker beat one by ~12% (median 126 vs 145 ms), since
  /// the shared queue lets idle workers take over the ranges of a worker
  /// that woke late.
  static constexpr std::size_t kRangesPerWorker = 4;

  /// Creates a pool with `threads` workers; 0 means hardware_concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Splits [begin, end) into contiguous, balanced ranges of at least
  /// `min_range` items — no more than size() * kRangesPerWorker of them,
  /// and only one on a single-worker pool — runs body(range_begin,
  /// range_end) once per range, and blocks until every range finished.
  /// When the split leaves a single range the body runs inline on the
  /// calling thread. Exceptions thrown by `body`
  /// propagate (the first one wins, after every range has finished).
  void parallel_ranges(
      std::size_t begin, std::size_t end, std::size_t min_range,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// Process-wide shared pool. Sized, in priority order, by the last
  /// set_global_threads() call, the IBVS_THREADS environment variable, or
  /// hardware_concurrency.
  static ThreadPool& global();

  /// Resizes the global pool: the current one (if any) is torn down and the
  /// next global() call builds a pool with `threads` workers. 0 restores
  /// the IBVS_THREADS/hardware default. Must not be called while another
  /// thread is inside a global-pool parallel_ranges() — the benches use it
  /// between measurements to sweep thread counts within one process.
  static void set_global_threads(std::size_t threads);

  /// Worker count the current (or next) global pool has (resolves the
  /// override/environment/hardware chain without forcing pool creation).
  static std::size_t global_thread_count();

 private:
  void submit(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace ibvs
