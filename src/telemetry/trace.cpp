#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace ibvs::telemetry {

namespace {

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_ordinal() noexcept {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// Per-thread stack of open spans, shared across tracers (a span's parent is
/// the innermost open span of the *same* tracer).
struct OpenSpan {
  const Tracer* tracer;
  std::uint64_t id;
};
thread_local std::vector<OpenSpan> t_open_spans;

std::string format_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

std::string SpanRecord::to_json() const {
  std::string out = "{\"name\":\"" + json_escape(name) + "\"";
  out += ",\"id\":" + std::to_string(id);
  if (parent != 0) out += ",\"parent\":" + std::to_string(parent);
  out += ",\"thread\":" + std::to_string(thread);
  out += ",\"start_us\":" + format_us(start_us);
  out += ",\"duration_us\":" + format_us(duration_us);
  if (!attrs.empty()) {
    out += ",\"attrs\":{";
    bool first = true;
    for (const auto& [key, value] : attrs) {
      if (!first) out += ",";
      first = false;
      out += "\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
    }
    out += "}";
  }
  out += "}";
  return out;
}

// --- Span ---

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    start_ns_ = other.start_ns_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::set_attr(std::string_view key, std::string_view value) {
  if (!tracer_) return;
  for (auto& [k, v] : record_.attrs) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  record_.attrs.emplace_back(std::string(key), std::string(value));
}

void Span::end() {
  if (!tracer_) return;
  record_.duration_us =
      static_cast<double>(monotonic_ns() - start_ns_) * 1e-3;
  // Unwind this span from the per-thread stack. It is normally the top, but
  // out-of-order closes (moved spans) just remove the matching entry.
  auto& open = t_open_spans;
  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    if (it->tracer == tracer_ && it->id == record_.id) {
      open.erase(std::next(it).base());
      break;
    }
  }
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->record(std::move(record_));
}

// --- Tracer ---

Tracer::Tracer() : epoch_ns_(monotonic_ns()) {}

Tracer& Tracer::global() {
  // Leaked on purpose: the atexit flush below must be able to run during
  // static destruction of other translation units without racing this
  // object's own teardown.
  static Tracer* instance = [] {
    auto* tracer = new Tracer;
    std::atexit([] {
      const char* path = std::getenv("IBVS_TRACE_OUT");
      if (path != nullptr && path[0] != '\0') {
        Tracer::global().flush_to_file(path);
      }
    });
    return tracer;
  }();
  return *instance;
}

bool Tracer::flush_to_file(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_.empty()) return false;
  std::ofstream os(path);
  if (!os) return false;
  for (const auto& record : finished_) {
    os << record.to_json() << '\n';
  }
  return true;
}

Span Tracer::span(std::string_view name, Labels attrs) {
  Span span;
  if (!enabled()) return span;
  span.tracer_ = this;
  span.record_.name = std::string(name);
  span.record_.attrs = std::move(attrs);
  span.record_.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.record_.thread = thread_ordinal();
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->tracer == this) {
      span.record_.parent = it->id;
      break;
    }
  }
  span.start_ns_ = monotonic_ns();
  span.record_.start_us =
      static_cast<double>(span.start_ns_ - epoch_ns_) * 1e-3;
  t_open_spans.push_back({this, span.record_.id});
  return span;
}

void Tracer::set_sink(std::ostream* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = sink;
}

void Tracer::record(SpanRecord&& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_ != nullptr) {
    *sink_ << record.to_json() << '\n';
  }
  finished_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

void Tracer::dump_jsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& record : finished_) {
    os << record.to_json() << '\n';
  }
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  finished_.clear();
}

}  // namespace ibvs::telemetry
