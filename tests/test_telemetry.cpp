#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "routing/engine.hpp"
#include "sm/subnet_manager.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "topology/fat_tree.hpp"
#include "topology/hosts.hpp"
#include "util/thread_pool.hpp"

namespace ibvs::telemetry {
namespace {

// Local registries keep these tests independent of the global one the
// library layers report into (exercised separately at the bottom).

TEST(Counter, IncrementAndValue) {
  Registry registry;
  Counter& c = registry.counter("test_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.counter_value("test_total"), 42u);
}

TEST(Counter, LabeledChildrenAreDistinct) {
  Registry registry;
  Counter& a = registry.counter("fam", {{"k", "a"}});
  Counter& b = registry.counter("fam", {{"k", "b"}});
  EXPECT_NE(&a, &b);
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(registry.counter_value("fam", {{"k", "a"}}), 3u);
  EXPECT_EQ(registry.counter_value("fam", {{"k", "b"}}), 4u);
  EXPECT_EQ(registry.counter_family_total("fam"), 7u);
}

TEST(Counter, LabelOrderDoesNotMatter) {
  Registry registry;
  Counter& a = registry.counter("fam", {{"x", "1"}, {"y", "2"}});
  Counter& b = registry.counter("fam", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Counter, SameNameSameLabelsSameChild) {
  Registry registry;
  EXPECT_EQ(&registry.counter("c"), &registry.counter("c"));
}

TEST(Counter, KindMismatchThrows) {
  Registry registry;
  registry.counter("metric");
  EXPECT_THROW(registry.gauge("metric"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("metric"), std::invalid_argument);
}

TEST(Gauge, SetAndAdd) {
  Registry registry;
  Gauge& g = registry.gauge("depth");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  EXPECT_EQ(registry.gauge_value("depth"), 1.5);
}

TEST(Histogram, LogScaleBucketing) {
  Registry registry;
  Histogram& h = registry.histogram(
      "lat", {}, HistogramOptions{.min_bound = 1.0, .num_buckets = 4});
  // Bounds: 1, 2, 4, 8; observations at, below and beyond them.
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (bounds are inclusive upper edges)
  h.observe(1.5);   // <= 2
  h.observe(8.0);   // <= 8
  h.observe(100.0); // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 111.0);
  EXPECT_EQ(h.cumulative(0), 2u);   // <= 1
  EXPECT_EQ(h.cumulative(1), 3u);   // <= 2
  EXPECT_EQ(h.cumulative(2), 3u);   // <= 4
  EXPECT_EQ(h.cumulative(3), 4u);   // <= 8
  EXPECT_EQ(h.cumulative(4), 5u);   // +Inf
}

TEST(Histogram, BoundsDouble) {
  Registry registry;
  Histogram& h = registry.histogram(
      "b", {}, HistogramOptions{.min_bound = 0.5, .num_buckets = 3});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 0.5);
  EXPECT_DOUBLE_EQ(h.bounds()[1], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 2.0);
}

TEST(Registry, ConcurrentIncrementsFromThreadPool) {
  Registry registry;
  Counter& c = registry.counter("hits_total");
  Gauge& g = registry.gauge("level");
  Histogram& h = registry.histogram("obs");
  ThreadPool pool(4);
  constexpr std::size_t kIters = 10000;
  pool.parallel_ranges(0, kIters, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      c.inc();
      g.add(1.0);
      h.observe(static_cast<double>(i % 7) * 1e-3);
    }
  });
  EXPECT_EQ(c.value(), kIters);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kIters));
  EXPECT_EQ(h.count(), kIters);
}

TEST(Registry, ConcurrentFamilyLookupIsSafe) {
  Registry registry;
  ThreadPool pool(4);
  pool.parallel_ranges(0, 1000, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      registry.counter("fam", {{"k", std::to_string(i % 16)}}).inc();
    }
  });
  EXPECT_EQ(registry.counter_family_total("fam"), 1000u);
}

TEST(Registry, DisabledWritesAreNoOps) {
  Registry registry;
  Counter& c = registry.counter("c");
  Gauge& g = registry.gauge("g");
  Histogram& h = registry.histogram("h");
  Registry::set_enabled(false);
  c.inc(100);
  g.set(5.0);
  h.observe(1.0);
  Registry::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(Registry, ResetValuesKeepsReferencesValid) {
  Registry registry;
  Counter& c = registry.counter("c", {{"k", "v"}});
  c.inc(9);
  registry.reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(registry.counter_value("c", {{"k", "v"}}), 1u);
}

TEST(Registry, PrometheusExpositionGolden) {
  Registry registry;
  registry.counter("smp_total", {{"attribute", "PortInfo"}}, "SMPs sent")
      .inc(3);
  registry.counter("smp_total", {{"attribute", "NodeInfo"}}).inc(2);
  registry.gauge("queue_depth", {}, "Depth").set(1.5);
  const std::string expected =
      "# HELP queue_depth Depth\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 1.5\n"
      "# HELP smp_total SMPs sent\n"
      "# TYPE smp_total counter\n"
      "smp_total{attribute=\"NodeInfo\"} 2\n"
      "smp_total{attribute=\"PortInfo\"} 3\n";
  EXPECT_EQ(registry.prometheus_text(), expected);
}

TEST(Registry, PrometheusHistogramExposition) {
  Registry registry;
  Histogram& h = registry.histogram(
      "lat_us", {}, HistogramOptions{.min_bound = 1.0, .num_buckets = 2});
  h.observe(0.5);
  h.observe(3.0);
  const std::string expected =
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 1\n"
      "lat_us_bucket{le=\"2\"} 1\n"
      "lat_us_bucket{le=\"+Inf\"} 2\n"
      "lat_us_sum 3.5\n"
      "lat_us_count 2\n"
      "lat_us{quantile=\"0.5\"} 1\n"
      "lat_us{quantile=\"0.95\"} 2\n"
      "lat_us{quantile=\"0.99\"} 2\n";
  EXPECT_EQ(registry.prometheus_text(), expected);
}

TEST(Histogram, QuantileEstimation) {
  Registry registry;
  Histogram& h = registry.histogram(
      "q", {}, HistogramOptions{.min_bound = 1.0, .num_buckets = 4});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  // Bounds 1,2,4,8: four observations in (2,4], so every quantile
  // interpolates linearly inside that bucket.
  for (int i = 0; i < 4; ++i) h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);   // rank 2 of 4 -> midpoint
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);   // upper edge of the bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);  // rank 1 of 4
}

TEST(Histogram, QuantileOverflowClampsToLastBound) {
  Registry registry;
  Histogram& h = registry.histogram(
      "q", {}, HistogramOptions{.min_bound = 1.0, .num_buckets = 2});
  h.observe(100.0);  // lands beyond the last finite bound (2)
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(Histogram, QuantilesInJsonSnapshot) {
  Registry registry;
  Histogram& h = registry.histogram(
      "q", {}, HistogramOptions{.min_bound = 1.0, .num_buckets = 4});
  for (int i = 0; i < 4; ++i) h.observe(3.0);
  const std::string snapshot = registry.json_snapshot();
  EXPECT_NE(snapshot.find("\"quantiles\":{\"p50\":3,\"p95\":3.9,\"p99\":3.98}"),
            std::string::npos);
}

TEST(Registry, JsonSnapshotGolden) {
  Registry registry;
  registry.counter("c_total", {{"k", "v"}}).inc(7);
  registry.gauge("g").set(2.0);
  const std::string expected =
      "{\n"
      "  \"counters\": [\n"
      "    {\"name\":\"c_total\",\"labels\":{\"k\":\"v\"},\"value\":7}\n"
      "  ],\n"
      "  \"gauges\": [\n"
      "    {\"name\":\"g\",\"labels\":{},\"value\":2}\n"
      "  ],\n"
      "  \"histograms\": [\n"
      "  ]\n}\n";
  EXPECT_EQ(registry.json_snapshot(), expected);
}

TEST(Registry, JsonSnapshotHistogramSparseBuckets) {
  Registry registry;
  Histogram& h = registry.histogram(
      "h", {}, HistogramOptions{.min_bound = 1.0, .num_buckets = 3});
  h.observe(0.5);
  h.observe(0.5);
  h.observe(50.0);  // overflow; buckets 2 and 4 stay empty -> omitted
  const std::string snapshot = registry.json_snapshot();
  EXPECT_NE(snapshot.find("\"count\":3"), std::string::npos);
  EXPECT_NE(snapshot.find("{\"le\":1,\"count\":2}"), std::string::npos);
  EXPECT_NE(snapshot.find("{\"le\":\"+Inf\",\"count\":1}"),
            std::string::npos);
  EXPECT_EQ(snapshot.find("{\"le\":2,"), std::string::npos);
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

// --- Span tracer ---

TEST(Tracer, SpanRecordsDurationAndAttrs) {
  Tracer tracer;
  {
    auto span = tracer.span("op", {{"k", "v"}});
    span.set_attr("count", "3");
  }
  const auto spans = tracer.finished();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "op");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_GE(spans[0].duration_us, 0.0);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_EQ(spans[0].attrs[0].first, "k");
  EXPECT_EQ(spans[0].attrs[1].second, "3");
}

TEST(Tracer, SetAttrOverwrites) {
  Tracer tracer;
  {
    auto span = tracer.span("op", {{"k", "old"}});
    span.set_attr("k", "new");
  }
  const auto spans = tracer.finished();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].second, "new");
}

TEST(Tracer, NestedSpansRecordParent) {
  Tracer tracer;
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    auto outer = tracer.span("outer");
    outer_id = outer.id();
    {
      auto inner = tracer.span("inner");
      inner_id = inner.id();
    }
  }
  const auto spans = tracer.finished();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);
}

TEST(Tracer, SeparateTracersDoNotNestIntoEachOther) {
  Tracer a;
  Tracer b;
  auto outer = a.span("a-outer");
  auto inner = b.span("b-inner");
  inner.end();
  outer.end();
  ASSERT_EQ(b.finished().size(), 1u);
  EXPECT_EQ(b.finished()[0].parent, 0u);  // a's span is not its parent
}

TEST(Tracer, EndIsIdempotentAndMoveSafe) {
  Tracer tracer;
  auto span = tracer.span("op");
  span.end();
  span.end();
  Span moved = std::move(span);
  moved.end();
  EXPECT_EQ(tracer.finished().size(), 1u);
}

TEST(Tracer, DisabledHandsOutInertSpans) {
  Tracer tracer;
  tracer.set_enabled(false);
  {
    auto span = tracer.span("op");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.finished().empty());
}

TEST(Tracer, JsonLinesSinkStreamsOnClose) {
  Tracer tracer;
  std::ostringstream sink;
  tracer.set_sink(&sink);
  { auto span = tracer.span("op", {{"k", "v"}}); }
  tracer.set_sink(nullptr);
  const std::string line = sink.str();
  EXPECT_NE(line.find("{\"name\":\"op\""), std::string::npos);
  EXPECT_NE(line.find("\"attrs\":{\"k\":\"v\"}"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  // One complete JSON object per line.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(Tracer, DumpJsonlMatchesFinished) {
  Tracer tracer;
  { auto s1 = tracer.span("one"); }
  { auto s2 = tracer.span("two"); }
  std::ostringstream os;
  tracer.dump_jsonl(os);
  const std::string dump = os.str();
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
  EXPECT_NE(dump.find("\"one\""), std::string::npos);
  EXPECT_NE(dump.find("\"two\""), std::string::npos);
  tracer.clear();
  EXPECT_TRUE(tracer.finished().empty());
}

TEST(Tracer, FlushToFileWritesJsonLines) {
  Tracer tracer;
  { auto span = tracer.span("flushed-op", {{"k", "v"}}); }
  const std::string path =
      testing::TempDir() + "ibvs_trace_flush_test.jsonl";
  ASSERT_TRUE(tracer.flush_to_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"name\":\"flushed-op\""), std::string::npos);
  EXPECT_NE(line.find("\"attrs\":{\"k\":\"v\"}"), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));  // exactly one span, one line
  std::remove(path.c_str());
}

TEST(Tracer, FlushToFileRefusesWhenEmpty) {
  Tracer tracer;  // no spans recorded
  const std::string path =
      testing::TempDir() + "ibvs_trace_flush_empty.jsonl";
  EXPECT_FALSE(tracer.flush_to_file(path));
  std::ifstream in(path);
  EXPECT_FALSE(in.good());  // no file created for an empty trace
}

TEST(Tracer, SpansFromPoolThreadsGetDistinctThreadIds) {
  Tracer tracer;
  ThreadPool pool(4);
  pool.parallel_ranges(0, 64, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      auto span = tracer.span("worker-op");
    }
  });
  const auto spans = tracer.finished();
  ASSERT_EQ(spans.size(), 64u);
  for (const auto& s : spans) EXPECT_GT(s.thread, 0u);
}

// --- Library wiring: the global registry as single source of truth ---

TEST(Wiring, SweepSmpCountersMatchTransportCounters) {
  auto& registry = Registry::global();
  const Labels lft{{"attribute", "LinearFwdTable"},
                   {"method", "Set"},
                   {"routing", "directed"}};
  // SmpCounters::port_info counts every PortInfo SMP regardless of method
  // or routing, so sum the telemetry children across those label values.
  const auto port_info_total = [&registry]() {
    std::uint64_t sum = 0;
    for (const char* method : {"Get", "Set"})
      for (const char* routing : {"directed", "lid"})
        sum += registry
                   .counter_value("ibvs_smp_total",
                                  {{"attribute", "PortInfo"},
                                   {"method", method},
                                   {"routing", routing}})
                   .value_or(0);
    return sum;
  };
  const std::uint64_t lft_before =
      registry.counter_value("ibvs_smp_total", lft).value_or(0);
  const std::uint64_t port_before = port_info_total();
  const std::uint64_t total_before =
      registry.counter_family_total("ibvs_smp_total");

  Fabric fabric;
  const auto built = topology::build_two_level_fat_tree(
      fabric, topology::TwoLevelParams{.num_leaves = 4,
                                       .num_spines = 2,
                                       .hosts_per_leaf = 3,
                                       .radix = 12});
  const auto hosts = topology::attach_hosts(fabric, built.host_slots);
  sm::SubnetManager smgr(fabric, hosts[0],
                         routing::make_engine(routing::EngineKind::kFatTree));
  const auto sweep = smgr.full_sweep();

  // The telemetry counters moved by exactly what the sweep reported and
  // what the transport's own struct recorded — one source of truth.
  EXPECT_EQ(registry.counter_value("ibvs_smp_total", lft).value_or(0) -
                lft_before,
            sweep.distribution.smps);
  EXPECT_EQ(registry.counter_value("ibvs_smp_total", lft).value_or(0) -
                lft_before,
            smgr.transport().counters().lft_block_writes);
  EXPECT_EQ(port_info_total() - port_before,
            smgr.transport().counters().port_info);
  EXPECT_EQ(registry.counter_family_total("ibvs_smp_total") - total_before,
            smgr.transport().counters().total);
}

TEST(Wiring, SweepEmitsPhaseSpans) {
  auto& tracer = Tracer::global();
  tracer.clear();

  Fabric fabric;
  const auto built = topology::build_two_level_fat_tree(
      fabric, topology::TwoLevelParams{.num_leaves = 2,
                                       .num_spines = 2,
                                       .hosts_per_leaf = 2,
                                       .radix = 8});
  const auto hosts = topology::attach_hosts(fabric, built.host_slots);
  sm::SubnetManager smgr(fabric, hosts[0],
                         routing::make_engine(routing::EngineKind::kMinHop));
  smgr.full_sweep();

  const auto spans = tracer.finished();
  std::uint64_t sweep_id = 0;
  for (const auto& s : spans) {
    if (s.name == "sm.sweep") sweep_id = s.id;
  }
  ASSERT_NE(sweep_id, 0u);
  bool saw_discovery = false;
  bool saw_lids = false;
  bool saw_pct = false;
  bool saw_lftdt = false;
  for (const auto& s : spans) {
    if (s.parent != sweep_id) continue;
    saw_discovery |= s.name == "sm.discovery";
    saw_lids |= s.name == "sm.lid_assignment";
    saw_pct |= s.name == "sm.path_computation";
    saw_lftdt |= s.name == "sm.lft_distribution";
  }
  EXPECT_TRUE(saw_discovery);
  EXPECT_TRUE(saw_lids);
  EXPECT_TRUE(saw_pct);
  EXPECT_TRUE(saw_lftdt);
  tracer.clear();
}

}  // namespace
}  // namespace ibvs::telemetry
