#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace ibvs {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_ranges(
    std::size_t begin, std::size_t end, std::size_t min_range,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  // A single worker gains nothing from a hand-off: everything runs inline.
  const std::size_t max_ranges = size() > 1 ? size() * kRangesPerWorker : 1;
  const std::size_t ranges = std::clamp<std::size_t>(
      total / std::max<std::size_t>(min_range, 1), 1, max_ranges);
  if (ranges == 1) {
    body(begin, end);
    return;
  }
  // Balanced split: the first `total % ranges` ranges get one extra item,
  // so range sizes differ by at most one.
  const std::size_t base = total / ranges;
  const std::size_t extra = total % ranges;

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t pending = ranges;
  std::exception_ptr first_error;

  std::size_t at = begin;
  for (std::size_t r = 0; r < ranges; ++r) {
    const std::size_t range_begin = at;
    at += base + (r < extra ? 1 : 0);
    submit([&, range_begin, range_end = at] {
      try {
        body(range_begin, range_end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(done_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      // Notify under the lock: the waiter owns done_cv on its stack, so it
      // must not be able to wake, see pending == 0, and destroy the cv
      // while this thread is still inside notify_one.
      std::lock_guard<std::mutex> lock(done_mutex);
      --pending;
      done_cv.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return pending == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

/// IBVS_THREADS=N sizes the global pool without touching code — the knob
/// the scaling benches and CI use for reproducible curves. 0/garbage means
/// "no override".
std::size_t env_threads() {
  const char* value = std::getenv("IBVS_THREADS");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0') return 0;
  return static_cast<std::size_t>(parsed);
}

struct GlobalPool {
  std::mutex mutex;
  std::unique_ptr<ThreadPool> pool;
  std::size_t override_threads = 0;  ///< 0 = IBVS_THREADS/hardware default
};

GlobalPool& global_slot() {
  static GlobalPool g;
  return g;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  GlobalPool& g = global_slot();
  std::lock_guard<std::mutex> lock(g.mutex);
  if (!g.pool) {
    std::size_t threads = g.override_threads;
    if (threads == 0) threads = env_threads();
    g.pool = std::make_unique<ThreadPool>(threads);
  }
  return *g.pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  GlobalPool& g = global_slot();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.override_threads = threads;
  g.pool.reset();  // rebuilt lazily at the requested size
}

std::size_t ThreadPool::global_thread_count() {
  GlobalPool& g = global_slot();
  std::lock_guard<std::mutex> lock(g.mutex);
  if (g.pool) return g.pool->size();
  std::size_t threads = g.override_threads;
  if (threads == 0) threads = env_threads();
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return threads;
}

}  // namespace ibvs
