// Structured event/span tracing for management-plane operations.
//
// A Span brackets one operation (a sweep phase, a migration, a boot storm)
// with monotonic start/stop timestamps and small string attributes. Spans
// nest per thread: a span opened while another is active on the same thread
// records it as parent, so a full_sweep span contains its discovery /
// lid-assignment / path-computation / lft-distribution children.
//
// Finished spans are appended to an in-memory buffer on the tracer and,
// optionally, streamed to a sink as JSON lines (one object per span) the
// moment they close — suitable for tailing a boot storm live. The export
// format is stable:
//
//   {"name":"sm.sweep","id":7,"parent":6,"thread":1,
//    "start_us":12.5,"duration_us":1034.2,
//    "attrs":{"switches":"36"}}
//
// Tracing shares the telemetry on/off switch granularity with metrics but
// has its own flag (Tracer::set_enabled): spans allocate, so hot loops can
// keep metrics on while muting the tracer.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"  // Labels, json_escape

namespace ibvs::telemetry {

/// One finished span, as stored/exported.
struct SpanRecord {
  std::string name;
  Labels attrs;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t thread = 0;  ///< small per-process thread ordinal
  double start_us = 0.0;     ///< monotonic, relative to the tracer epoch
  double duration_us = 0.0;

  [[nodiscard]] std::string to_json() const;
};

class Tracer;

/// Move-only RAII handle; closing (end() or destruction) records the span.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Attaches/overwrites one attribute (e.g. counts known only at the end).
  void set_attr(std::string_view key, std::string_view value);

  /// Closes the span now; idempotent.
  void end();

  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const noexcept { return record_.id; }

 private:
  friend class Tracer;
  Tracer* tracer_ = nullptr;
  SpanRecord record_;
  std::uint64_t start_ns_ = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer the library layers report into.
  static Tracer& global();

  /// Disabled tracers hand out inert spans (no allocation, no record).
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span; the current thread's innermost open span becomes parent.
  [[nodiscard]] Span span(std::string_view name, Labels attrs = {});

  /// Streams each finished span to `sink` as one JSON line. nullptr stops
  /// streaming. The sink must outlive the tracer or the next set_sink.
  void set_sink(std::ostream* sink);

  /// Copies the finished spans buffered so far (oldest first).
  [[nodiscard]] std::vector<SpanRecord> finished() const;

  /// Writes all buffered spans as JSON lines.
  void dump_jsonl(std::ostream& os) const;

  /// Writes buffered spans as JSON lines to `path`, creating the file only
  /// when there is something to write. Returns whether a file was written.
  /// The global tracer calls this at process exit with $IBVS_TRACE_OUT so
  /// traces survive a run that forgets to export them.
  bool flush_to_file(const std::string& path) const;

  /// Drops buffered spans (streamed output is unaffected).
  void clear();

 private:
  friend class Span;
  void record(SpanRecord&& record);

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_id_{1};
  std::uint64_t epoch_ns_ = 0;

  mutable std::mutex mutex_;
  std::vector<SpanRecord> finished_;
  std::ostream* sink_ = nullptr;
};

}  // namespace ibvs::telemetry
