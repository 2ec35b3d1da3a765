#include "util/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "io/artifacts.h"
#include "test_helpers.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace mmr {
namespace {

/// Restores the recording mask and isolates each test in its own registry
/// so tests cannot see each other's (or the library's) metrics.
class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() : scope_(&registry_) {}

  MetricsRegistry registry_;

 private:
  const testing::RecordingScope recording_;
  MetricsScope scope_;
};

TEST_F(MetricsTest, CounterAccumulates) {
  MetricCounter& c = registry_.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(&registry_.counter("c"), &c);
  EXPECT_NE(&registry_.counter("other"), &c);
}

TEST_F(MetricsTest, GaugeTracksLastAndAggregate) {
  MetricGauge& g = registry_.gauge("g");
  g.set(3.0);
  g.set(1.0);
  g.set(2.0);
  const GaugeStat s = g.stat();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.last, 2.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST_F(MetricsTest, ConcurrentCountersFromThreadPool) {
  MetricCounter& c = registry_.counter("c");
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kAddsPerTask = 1000;
  pool.parallel_for(kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kAddsPerTask; ++i) c.add();
  });
  EXPECT_EQ(c.value(), kTasks * kAddsPerTask);
}

TEST_F(MetricsTest, MergeIsAssociative) {
  // Three registries folded ((a+b)+c) and (a+(b+c)) must snapshot equal.
  auto fill = [](MetricsRegistry& r, std::uint64_t n, double x) {
    r.counter("c").add(n);
    r.gauge("g").set(x);
  };
  MetricsRegistry a1, b1, c1, a2, b2, c2;
  fill(a1, 1, 1.5);
  fill(a2, 1, 1.5);
  fill(b1, 2, 4.5);
  fill(b2, 2, 4.5);
  fill(c1, 3, 7.5);
  fill(c2, 3, 7.5);

  a1.merge(b1);
  a1.merge(c1);  // (a+b)+c
  b2.merge(c2);
  a2.merge(b2);  // a+(b+c)

  const MetricsSnapshot left = a1.snapshot();
  const MetricsSnapshot right = a2.snapshot();
  EXPECT_EQ(left.counters.at("c"), 6u);
  EXPECT_EQ(left.counters, right.counters);
  EXPECT_DOUBLE_EQ(left.gauges.at("g").mean, right.gauges.at("g").mean);
  EXPECT_DOUBLE_EQ(left.gauges.at("g").min, right.gauges.at("g").min);
  EXPECT_DOUBLE_EQ(left.gauges.at("g").max, right.gauges.at("g").max);
}

TEST_F(MetricsTest, MergeIntoEmptyEqualsCopy) {
  MetricsRegistry src, dst;
  src.counter("c").add(7);
  src.gauge("g").set(2.5);
  dst.merge(src);
  const MetricsSnapshot s = dst.snapshot();
  EXPECT_EQ(s.counters.at("c"), 7u);
  EXPECT_DOUBLE_EQ(s.gauges.at("g").last, 2.5);
}

TEST_F(MetricsTest, ScopeRedirectsAndRestores) {
  set_recording(recording_mask() | kRecMetrics);
  MetricsRegistry inner;
  {
    MetricsScope scope(&inner);
    MMR_COUNT("scoped", 5);
  }
  MMR_COUNT("outer", 1);
  EXPECT_EQ(inner.snapshot().counters.at("scoped"), 5u);
  const MetricsSnapshot outer = registry_.snapshot();
  EXPECT_EQ(outer.counters.count("scoped"), 0u);
  EXPECT_EQ(outer.counters.at("outer"), 1u);
}

TEST_F(MetricsTest, DisabledMacrosRecordNothing) {
  set_recording(recording_mask() & ~kRecMetrics);
  MMR_COUNT("c", 1);
  MMR_GAUGE("g", 1.0);
  EXPECT_TRUE(registry_.snapshot().empty());
}

TEST_F(MetricsTest, LabelScopesNestAndRestore) {
  EXPECT_EQ(current_metric_label(), "");
  {
    MetricLabelScope label("ours");
    EXPECT_EQ(current_metric_label(), "ours");
    {
      MetricLabelScope inner("lru");
      EXPECT_EQ(current_metric_label(), "lru");
    }
    EXPECT_EQ(current_metric_label(), "ours");
  }
  EXPECT_EQ(current_metric_label(), "");
}

TEST_F(MetricsTest, ResetClearsValuesKeepsHandles) {
  MetricCounter& c = registry_.counter("c");
  c.add(3);
  registry_.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&registry_.counter("c"), &c);
}

TEST_F(MetricsTest, JsonRoundTrip) {
  registry_.counter("sim.requests").add(1234);
  registry_.gauge("runner.response").set(3.5);

  RunMeta meta;
  meta.tool = "test_metrics";
  meta.add("base_seed", std::uint64_t{42}).add("quick", true);

  std::ostringstream os;
  write_metrics_json(os, registry_.snapshot(), meta);
  const JsonValue root = json_parse(os.str());

  EXPECT_EQ(root.at("run_meta").at("tool").str_v, "test_metrics");
  EXPECT_DOUBLE_EQ(root.at("run_meta").at("base_seed").num_v, 42.0);
  EXPECT_EQ(root.at("run_meta").at("quick").bool_v, true);
  EXPECT_TRUE(root.at("run_meta").has("git_describe"));
  EXPECT_TRUE(root.at("run_meta").has("timestamp_utc"));
  EXPECT_DOUBLE_EQ(root.at("counters").at("sim.requests").num_v, 1234.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("runner.response").at("last").num_v,
                   3.5);
  // Exactly the two instrument kinds plus run_meta.
  EXPECT_EQ(root.obj.size(), 3u);
}

}  // namespace
}  // namespace mmr
