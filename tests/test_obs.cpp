#include "obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "baselines/static_policies.h"
#include "core/policy.h"
#include "obs/artifact_outputs.h"
#include "obs/heavy_hitters.h"
#include "obs/sketch.h"
#include "obs/sketch_artifact.h"
#include "obs/window.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace mmr {
namespace {

/// Every test must leave the process-wide telemetry exactly as it found
/// it: the recording scope restores the mask and empties the log; the cap
/// and config go back to their defaults.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    global_obs_log().set_max_shards(100'000);
    set_obs_config(ObsConfig{});
  }

  const testing::RecordingScope scope_;
};

// ---------------------------------------------------------------------------
// QuantileSketch

TEST_F(ObsTest, SketchEmptyAndSingle) {
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.quantile(0.5), CheckError);

  s.add(2.5);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.count(), 1u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(s.quantile(q), 2.5, 2.5 * s.alpha());
  }
  EXPECT_DOUBLE_EQ(s.min(), 2.5);
  EXPECT_DOUBLE_EQ(s.max(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 2.5);
}

TEST_F(ObsTest, SketchAllEqualSamples) {
  QuantileSketch s;
  s.add(1.75, 100'000);
  EXPECT_EQ(s.count(), 100'000u);
  for (double q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_NEAR(s.quantile(q), 1.75, 1.75 * s.alpha());
  }
}

TEST_F(ObsTest, SketchRejectsBadQuantileArgs) {
  QuantileSketch s;
  s.add(1.0);
  EXPECT_THROW(s.quantile(-0.1), CheckError);
  EXPECT_THROW(s.quantile(1.1), CheckError);
}

TEST_F(ObsTest, SketchZeroAndNegativeValues) {
  QuantileSketch s;
  s.add(0.0, 10);
  s.add(-3.0, 10);
  s.add(5.0, 10);
  EXPECT_EQ(s.zero_count(), 20u);
  EXPECT_EQ(s.count(), 30u);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  // The zero bucket reports min() for low quantiles.
  EXPECT_DOUBLE_EQ(s.quantile(0.1), -3.0);
  EXPECT_NEAR(s.quantile(0.99), 5.0, 5.0 * s.alpha());
}

// The headline guarantee: on a heavy-tailed million-sample stream every
// sketch quantile is within relative error alpha of the exact sample
// quantile.
TEST_F(ObsTest, SketchMillionSampleAccuracyBound) {
  const double alpha = 0.01;
  QuantileSketch sketch(alpha, 2048);
  Rng rng(12345);
  std::vector<double> exact;
  exact.reserve(1'000'000);
  for (int i = 0; i < 1'000'000; ++i) {
    // Log-normal-ish: exp of a uniform spread gives a long tail covering
    // several orders of magnitude, like response times do.
    const double x = std::exp(rng.uniform(-3.0, 4.0));
    exact.push_back(x);
    sketch.add(x);
  }
  std::sort(exact.begin(), exact.end());
  EXPECT_EQ(sketch.count(), exact.size());
  EXPECT_EQ(sketch.collapses(), 0u);  // 2048 buckets must span this range
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}) {
    const double truth = quantile_sorted(exact, q);
    const double est = sketch.quantile(q);
    EXPECT_NEAR(est, truth, truth * alpha * 1.0001)
        << "q=" << q << " exact=" << truth << " sketch=" << est;
  }
}

TEST_F(ObsTest, SketchMergeMatchesSequential) {
  QuantileSketch all(0.01, 2048), a(0.01, 2048), b(0.01, 2048);
  Rng rng(7);
  for (int i = 0; i < 50'000; ++i) {
    const double x = std::exp(rng.uniform(-2.0, 3.0));
    all.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  // Exact merge: identical bucket table, so every quantile agrees to the
  // last bit. Only sum() may differ (floating-point addition order).
  EXPECT_EQ(a.buckets(), all.buckets());
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.zero_count(), all.zero_count());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_NEAR(a.sum(), all.sum(), std::fabs(all.sum()) * 1e-12);
  EXPECT_DOUBLE_EQ(a.quantile(0.99), all.quantile(0.99));
}

TEST_F(ObsTest, SketchMergeRequiresSameShape) {
  QuantileSketch a(0.01, 2048);
  QuantileSketch b(0.02, 2048);
  QuantileSketch c(0.01, 512);
  a.add(1.0);
  b.add(1.0);
  c.add(1.0);
  EXPECT_THROW(a.merge(b), CheckError);
  EXPECT_THROW(a.merge(c), CheckError);
}

// Collapsing folds the LOWEST buckets; the tail quantiles must survive.
TEST_F(ObsTest, SketchCollapsePreservesTail) {
  QuantileSketch tight(0.01, 32);  // tiny span to force collapses
  QuantileSketch wide(0.01, 4096);
  Rng rng(3);
  std::vector<double> exact;
  for (int i = 0; i < 100'000; ++i) {
    const double x = std::exp(rng.uniform(-6.0, 6.0));
    tight.add(x);
    wide.add(x);
    exact.push_back(x);
  }
  std::sort(exact.begin(), exact.end());
  EXPECT_GT(tight.collapses(), 0u);
  EXPECT_EQ(wide.collapses(), 0u);
  for (double q : {0.99, 0.999}) {
    const double truth = quantile_sorted(exact, q);
    EXPECT_NEAR(tight.quantile(q), truth, truth * 0.0101) << "q=" << q;
  }
  // Low quantiles in the collapsed region are only upper-bounded.
  EXPECT_GE(tight.quantile(0.01), exact.front());
}

TEST_F(ObsTest, SketchBucketRoundTrip) {
  QuantileSketch a(0.01, 2048);
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) a.add(std::exp(rng.uniform(-2.0, 2.0)));
  QuantileSketch b(a.alpha(), a.max_buckets());
  for (const auto& [index, count] : a.buckets()) b.add_bucket(index, count);
  EXPECT_EQ(b.count(), a.count() - a.zero_count());
  EXPECT_NEAR(b.quantile(0.99), a.quantile(0.99),
              a.quantile(0.99) * 2 * a.alpha());
}

// ---------------------------------------------------------------------------
// SpaceSavingTracker

TEST_F(ObsTest, SpaceSavingFindsTrueHeavyHitters) {
  SpaceSavingTracker t(8);
  Rng rng(21);
  // Two keys take ~60% of the stream; the rest is spread over 1000 keys.
  for (int i = 0; i < 30'000; ++i) {
    const double u = rng.uniform();
    std::uint64_t key;
    if (u < 0.4) {
      key = pack_hot_key(7, 1);
    } else if (u < 0.6) {
      key = pack_hot_key(13, 2);
    } else {
      key = pack_hot_key(static_cast<std::uint32_t>(rng() % 1000) + 100, 0);
    }
    t.add(key, 0.5);
  }
  const auto top = t.top();
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].key, pack_hot_key(7, 1));
  EXPECT_EQ(top[1].key, pack_hot_key(13, 2));
  EXPECT_GE(top[0].count - top[0].error, 30'000u * 3 / 10);
  EXPECT_GT(top[0].weight, 0.0);
  EXPECT_EQ(t.total(), 30'000u);
}

TEST_F(ObsTest, SpaceSavingDeterministicTieBreak) {
  // Capacity 2, three equally-frequent keys: the eviction victim must be
  // the (count, key)-smallest, so two runs over the same stream agree.
  SpaceSavingTracker a(2), b(2);
  const std::vector<std::uint64_t> stream = {5, 9, 3, 5, 9, 3, 3};
  for (std::uint64_t k : stream) a.add(k);
  for (std::uint64_t k : stream) b.add(k);
  const auto ta = a.top(), tb = b.top();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_EQ(ta[i].count, tb[i].count);
    EXPECT_EQ(ta[i].error, tb[i].error);
  }
}

TEST_F(ObsTest, SpaceSavingMergeIsCommutative) {
  SpaceSavingTracker a(4), b(4);
  Rng rng(5);
  for (int i = 0; i < 5'000; ++i) {
    a.add(rng() % 50, 0.1);
    b.add(rng() % 80, 0.2);
  }
  SpaceSavingTracker ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  const auto ta = ab.top(), tb = ba.top();
  EXPECT_EQ(ab.total(), ba.total());
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_EQ(ta[i].count, tb[i].count);
  }
}

TEST_F(ObsTest, SpaceSavingMergeRequiresSameCapacity) {
  SpaceSavingTracker a(4), b(8);
  EXPECT_THROW(a.merge(b), CheckError);
}

TEST_F(ObsTest, HotKeyPacking) {
  const std::uint64_t key = pack_hot_key(0xdeadbeefu, 0x1234u);
  EXPECT_EQ(hot_key_page(key), 0xdeadbeefu);
  EXPECT_EQ(hot_key_server(key), 0x1234u);
}

// ---------------------------------------------------------------------------
// WindowedAggregator / SLO

/// Feeds one request to `agg` the way ObsShard does: with the response's
/// log-bucket index at the default alpha.
void observe(WindowedAggregator& agg, double t, double response_s,
             double stretch_x) {
  static const QuantileSketch indexer;
  agg.observe(t, response_s,
              response_s <= QuantileSketch::kMinTrackable
                  ? 0
                  : indexer.bucket_index(response_s),
              stretch_x);
}

TEST_F(ObsTest, ParseSloSpec) {
  const SloConfig a = parse_slo_spec("2.5,1.8,0.95");
  EXPECT_DOUBLE_EQ(a.response_s, 2.5);
  EXPECT_DOUBLE_EQ(a.stretch_x, 1.8);
  EXPECT_DOUBLE_EQ(a.target, 0.95);
  const SloConfig b = parse_slo_spec("1:2:0.5");
  EXPECT_DOUBLE_EQ(b.response_s, 1.0);
  EXPECT_THROW(parse_slo_spec(""), CheckError);
  EXPECT_THROW(parse_slo_spec("1,2"), CheckError);
  EXPECT_THROW(parse_slo_spec("0,1.5,0.99"), CheckError);   // resp <= 0
  EXPECT_THROW(parse_slo_spec("2,0.5,0.99"), CheckError);   // stretch < 1
  EXPECT_THROW(parse_slo_spec("2,1.5,1.0"), CheckError);    // target >= 1
  EXPECT_THROW(parse_slo_spec("x,1.5,0.9"), CheckError);
}

TEST_F(ObsTest, WindowAttainmentAndBurn) {
  SloConfig slo;
  slo.response_s = 1.0;
  slo.stretch_x = 2.0;
  slo.target = 0.9;  // budget = 10%
  WindowedAggregator agg(10.0, slo);
  // Window 0: 8 good, 2 bad (slow). Window 1: 10 good. Window 3 (gap!):
  // 5 bad via stretch even though the response is fast.
  for (int i = 0; i < 8; ++i) observe(agg, 1.0, 0.5, 1.0);
  for (int i = 0; i < 2; ++i) observe(agg, 2.0, 3.0, 1.0);
  for (int i = 0; i < 10; ++i) observe(agg, 12.0, 0.9, 1.9);
  for (int i = 0; i < 5; ++i) observe(agg, 35.0, 0.5, 2.5);

  const SloReport report = agg.evaluate();
  ASSERT_EQ(report.windows.size(), 3u);
  EXPECT_EQ(report.windows[0].index, 0u);
  EXPECT_DOUBLE_EQ(report.windows[0].attainment, 0.8);
  EXPECT_NEAR(report.windows[0].burn, 2.0, 1e-12);  // 20% bad / 10% budget
  EXPECT_DOUBLE_EQ(report.windows[1].attainment, 1.0);
  EXPECT_EQ(report.windows[2].index, 3u);
  EXPECT_DOUBLE_EQ(report.windows[2].attainment, 0.0);
  EXPECT_NEAR(report.windows[2].burn, 10.0, 1e-12);
  EXPECT_EQ(report.total, 25u);
  EXPECT_EQ(report.good, 18u);
  EXPECT_NEAR(report.worst_burn_1, 10.0, 1e-12);
  // Worst 6-window span: the one starting at (and only containing) the
  // all-bad window 3 — nothing occupied follows it to dilute the burn.
  EXPECT_NEAR(report.worst_burn_6, 10.0, 1e-12);
}

TEST_F(ObsTest, MultiWindowBurnDilutesTransientSpikes) {
  SloConfig slo;
  slo.response_s = 1.0;
  slo.target = 0.9;
  WindowedAggregator agg(10.0, slo);
  // Window 0 is all-bad, windows 1..5 are all-good: every 6-window span
  // containing the spike also contains good traffic, so the sustained
  // burn is far below the single-window spike.
  for (int i = 0; i < 10; ++i) observe(agg, 1.0, 5.0, 1.0);
  for (int w = 1; w <= 5; ++w) {
    for (int i = 0; i < 10; ++i) {
      observe(agg, 10.0 * w + 1.0, 0.5, 1.0);
    }
  }
  const SloReport report = agg.evaluate();
  EXPECT_NEAR(report.worst_burn_1, 10.0, 1e-12);
  // Span [0, 6): 10 bad of 60 -> burn (1/6)/0.1.
  EXPECT_NEAR(report.worst_burn_6, (10.0 / 60.0) / 0.1, 1e-12);
  EXPECT_LT(report.worst_burn_6, report.worst_burn_1);
}

TEST_F(ObsTest, WindowMergeMatchesSequential) {
  SloConfig slo;
  WindowedAggregator all(5.0, slo), a(5.0, slo), b(5.0, slo);
  Rng rng(9);
  for (int i = 0; i < 20'000; ++i) {
    const double t = rng.uniform(0.0, 200.0);
    const double resp = std::exp(rng.uniform(-2.0, 1.5));
    const double stretch = 1.0 + rng.uniform() * 0.8;
    observe(all, t, resp, stretch);
    observe(i % 2 ? a : b, t, resp, stretch);
  }
  a.merge(b);
  const SloReport ra = a.evaluate(), rall = all.evaluate();
  EXPECT_EQ(a.total(), all.total());
  ASSERT_EQ(ra.windows.size(), rall.windows.size());
  for (std::size_t i = 0; i < ra.windows.size(); ++i) {
    EXPECT_EQ(ra.windows[i].index, rall.windows[i].index);
    EXPECT_EQ(ra.windows[i].good, rall.windows[i].good);
    EXPECT_EQ(ra.windows[i].total, rall.windows[i].total);
    EXPECT_DOUBLE_EQ(ra.windows[i].p99_s, rall.windows[i].p99_s);
  }
  EXPECT_DOUBLE_EQ(ra.worst_burn_6, rall.worst_burn_6);
}

TEST_F(ObsTest, WindowMergeRejectsDifferentSloOrWidth) {
  SloConfig slo;
  WindowedAggregator a(10.0, slo);
  observe(a, 1.0, 0.5, 1.0);
  // Widths a power of two apart still differ: SLO windows never fold.
  WindowedAggregator wider(20.0, slo);
  EXPECT_THROW(a.merge(wider), CheckError);
  for (double SloConfig::*field :
       {&SloConfig::response_s, &SloConfig::stretch_x, &SloConfig::target}) {
    SloConfig other = slo;
    other.*field *= 0.5;
    WindowedAggregator b(10.0, other);
    EXPECT_THROW(a.merge(b), CheckError);
  }
  EXPECT_EQ(a.total(), 1u);  // a rejected merge leaves the target intact
}

TEST_F(ObsTest, WindowCopyDropsHotCellCacheSafely) {
  SloConfig slo;
  WindowedAggregator a(10.0, slo);
  observe(a, 5.0, 0.5, 1.0);
  WindowedAggregator b = a;  // copy must not alias a's hot-cell cache
  observe(b, 5.0, 0.5, 1.0);  // would write through a dangling cache
  observe(b, 15.0, 0.5, 1.0);
  WindowedAggregator c(10.0, slo);
  c = b;
  observe(c, 15.0, 0.5, 1.0);
  const SloReport ra = a.evaluate(), rb = b.evaluate(), rc = c.evaluate();
  ASSERT_EQ(ra.windows.size(), 1u);
  EXPECT_EQ(ra.windows[0].total, 1u);
  ASSERT_EQ(rb.windows.size(), 2u);
  EXPECT_EQ(rb.windows[0].total, 2u);
  EXPECT_EQ(rb.windows[1].total, 1u);
  ASSERT_EQ(rc.windows.size(), 2u);
  EXPECT_EQ(rc.windows[1].total, 2u);
  EXPECT_EQ(b.total(), 3u);
  EXPECT_EQ(c.total(), 4u);
}

TEST_F(ObsTest, SloWindowsNeverCoarsen) {
  SloConfig slo;
  WindowedAggregator agg(1.0, slo);
  // Far past the station series' default 512-cell cap.
  for (int w = 0; w < 2000; w += 100) observe(agg, w + 0.5, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(agg.window_s(), 1.0);
  const SloReport report = agg.evaluate();
  ASSERT_EQ(report.windows.size(), 20u);
  EXPECT_EQ(report.windows.back().index, 1900u);
  EXPECT_DOUBLE_EQ(report.windows.back().t_start_s, 1900.0);
}

// ---------------------------------------------------------------------------
// ObsLog + artifact

ObsShard make_shard(const ObsConfig& cfg, const std::string& policy,
                    FlightMode mode, std::uint64_t run, std::uint64_t seed) {
  ObsShard shard(cfg);
  shard.policy = policy;
  shard.mode = mode;
  shard.run = run;
  Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    const double resp = std::exp(rng.uniform(-2.0, 2.0));
    shard.observe(static_cast<PageId>(rng() % 40),
                  static_cast<ServerId>(rng() % 3), rng.uniform(0.0, 300.0),
                  resp, 1.0 + rng.uniform(), rng.uniform() * 0.2);
  }
  return shard;
}

TEST_F(ObsTest, SnapshotMergesGroupsCanonically) {
  const ObsConfig cfg = obs_config();
  ObsLog& log = global_obs_log();
  // Insert out of order: runs 2, 0, 1 of one group plus a second group.
  log.add(make_shard(cfg, "greedy", FlightMode::kStatic, 2, 1));
  log.add(make_shard(cfg, "lru", FlightMode::kLru, 0, 2));
  log.add(make_shard(cfg, "greedy", FlightMode::kStatic, 0, 3));
  log.add(make_shard(cfg, "greedy", FlightMode::kStatic, 1, 4));
  EXPECT_EQ(log.size(), 4u);

  const std::vector<ObsShard> groups = log.snapshot();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].policy, "greedy");
  EXPECT_EQ(groups[0].requests, 1500u);
  EXPECT_EQ(groups[0].run, 0u);  // smallest run of the group
  EXPECT_EQ(groups[1].policy, "lru");
  EXPECT_EQ(groups[1].requests, 500u);
}

TEST_F(ObsTest, LogDropsPastCap) {
  const ObsConfig cfg = obs_config();
  ObsLog& log = global_obs_log();
  log.set_max_shards(2);
  for (int i = 0; i < 4; ++i) {
    log.add(make_shard(cfg, "p", FlightMode::kStatic, i, i));
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 2u);
}

TEST_F(ObsTest, ArtifactRoundTrip) {
  const ObsConfig cfg = obs_config();
  std::vector<ObsShard> groups;
  groups.push_back(make_shard(cfg, "greedy", FlightMode::kStatic, 0, 1));
  groups.push_back(make_shard(cfg, "lru", FlightMode::kLru, 0, 2));
  RunMeta meta;
  meta.tool = "test";
  std::ostringstream os;
  write_sketch_jsonl(os, groups, cfg, 3, meta);

  const SketchDoc doc = parse_sketch_jsonl(os.str());
  EXPECT_EQ(doc.schema, "mmr-sketch");
  EXPECT_EQ(doc.version, 1);
  EXPECT_TRUE(doc.has_summary);
  EXPECT_EQ(doc.declared_dropped, 3u);
  EXPECT_EQ(doc.of_type("sketch").size(), 4u);  // 2 groups x 2 metrics
  EXPECT_EQ(doc.of_type("slo").size(), 2u);
  EXPECT_FALSE(doc.of_type("hot").empty());
  EXPECT_FALSE(doc.of_type("window").empty());

  // Rebuild the response sketch from its serialized buckets and check the
  // p99 agrees with the source within the doubled relative-error bound.
  const JsonValue* line = doc.of_type("sketch")[0];
  QuantileSketch rebuilt(kObsAlpha, kObsMaxBuckets);
  for (const JsonValue& pair : line->at("buckets").arr) {
    rebuilt.add_bucket(static_cast<std::int32_t>(pair.at(0).num_v),
                       static_cast<std::uint64_t>(pair.at(1).num_v));
  }
  const double source_p99 = groups[0].response.quantile(0.99);
  EXPECT_NEAR(rebuilt.quantile(0.99), source_p99,
              source_p99 * 2 * kObsAlpha);
}

TEST_F(ObsTest, ParserRejectsCorruptDocs) {
  const ObsConfig cfg = obs_config();
  std::vector<ObsShard> groups;
  groups.push_back(make_shard(cfg, "p", FlightMode::kStatic, 0, 1));
  RunMeta meta;
  meta.tool = "test";
  std::ostringstream os;
  write_sketch_jsonl(os, groups, cfg, 0, meta);
  const std::string good = os.str();

  EXPECT_THROW(parse_sketch_jsonl(""), CheckError);
  EXPECT_THROW(parse_sketch_jsonl("{\"schema\":\"nope\"}\n"), CheckError);
  // Truncation drops the summary line -> strict parse fails.
  const auto last_line = good.rfind("{\"type\":\"summary\"");
  ASSERT_NE(last_line, std::string::npos);
  EXPECT_THROW(parse_sketch_jsonl(good.substr(0, last_line)), CheckError);
  // An unknown event type after the header is rejected.
  const auto first_nl = good.find('\n');
  const std::string injected = good.substr(0, first_nl + 1) +
                               "{\"type\":\"mystery\"}\n" +
                               good.substr(first_nl + 1);
  EXPECT_THROW(parse_sketch_jsonl(injected), CheckError);
  // Envelope rules: version 1 only, non-negative integer counts.
  auto replaced = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text : text.replace(at, from.size(), to);
  };
  EXPECT_THROW(parse_sketch_jsonl(replaced("\"version\":1", "\"version\":2")),
               CheckError);
  EXPECT_THROW(parse_sketch_jsonl(replaced("\"dropped\":0", "\"dropped\":-1")),
               CheckError);
  EXPECT_THROW(parse_sketch_jsonl(replaced("\"zero\":0", "\"zero\":-1")),
               CheckError);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: artifact bytes must not depend on thread count.

TEST_F(ObsTest, ArtifactBytesIdenticalAcrossThreadCounts) {
  ExperimentConfig cfg;
  cfg.workload = testing::small_params();
  cfg.sim.requests_per_server = 300;
  cfg.runs = 2;
  cfg.base_seed = 7;
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  RunMeta meta;
  meta.tool = "test";

  auto render = [&](ThreadPool* pool) {
    const testing::RecordingScope obs(kRecObs);
    run_scenario(cfg, spec, pool);
    std::ostringstream os;
    write_sketch_jsonl(os, global_obs_log().snapshot(), obs_config(),
                       global_obs_log().dropped(), meta);
    return os.str();
  };

  const std::string serial = render(nullptr);
  ThreadPool pool2(2);
  const std::string threads2 = render(&pool2);
  ThreadPool pool8(8);
  const std::string threads8 = render(&pool8);
  EXPECT_EQ(serial, threads2);
  EXPECT_EQ(serial, threads8);
  EXPECT_GT(serial.size(), 1000u);  // telemetry actually recorded
  // And the artifact parses strictly.
  const SketchDoc doc = parse_sketch_jsonl(serial);
  EXPECT_FALSE(doc.of_type("sketch").empty());
}

// ---------------------------------------------------------------------------
// The sketch is the simulator's one response-tail structure: on the paper's
// Table 1 workload its per-policy quantiles must match the exact samples
// and reach the real tail, far past the 60 s clip of the fixed-bucket
// histogram it replaced.

TEST_F(ObsTest, SimulatorSketchTracksExactTableOneTails) {
  const SystemModel sys = generate_workload(WorkloadParams{}, 42);
  const Assignment ours =
      run_replication_policy(sys, PolicyOptions{}).assignment;
  const Assignment local = make_local_assignment(sys);
  const Assignment remote = make_remote_assignment(sys);
  SimParams params;
  params.requests_per_server = 2000;
  params.capture_samples = true;
  const Simulator sim(sys, params);

  const testing::RecordingScope obs(kRecObs);
  std::map<std::string, SampleSet> exact;
  for (const auto& [policy, asg] :
       {std::pair<std::string, const Assignment*>{"ours", &ours},
        {"local", &local},
        {"remote", &remote},
        {"lru", nullptr}}) {
    MetricLabelScope label(policy);
    exact[policy] = asg == nullptr ? sim.simulate_lru(11).page_samples
                                   : sim.simulate(*asg, 11).page_samples;
  }

  std::ostringstream os;
  write_sketch_jsonl(os, global_obs_log().snapshot(), obs_config(),
                     global_obs_log().dropped(), RunMeta{});
  const SketchDoc doc = parse_sketch_jsonl(os.str());
  const double alpha = kObsAlpha;
  std::size_t checked = 0;
  for (const JsonValue* e : doc.of_type("sketch")) {
    if (e->at("metric").str_v != "response") continue;
    const std::string& policy = e->at("policy").str_v;
    ASSERT_EQ(exact.count(policy), 1u) << policy;
    const SampleSet& samples = exact.at(policy);
    ASSERT_EQ(e->at("count").num_v, static_cast<double>(samples.count()));
    for (const auto& [key, q] : {std::pair<const char*, double>{"p50", 0.50},
                                 {"p99", 0.99}}) {
      const double truth = samples.quantile(q);
      EXPECT_NEAR(e->at(key).num_v, truth, truth * alpha * 1.0001)
          << policy << " " << key;
    }
    EXPECT_GT(e->at("p99").num_v, 60.0) << policy;
    ++checked;
  }
  EXPECT_EQ(checked, exact.size());
}

// ---------------------------------------------------------------------------
// Artifact-flag binder.

Flags parse_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return Flags::parse(static_cast<int>(args.size()), args.data());
}

TEST_F(ObsTest, BinderRejectsOutOfRangeFlags) {
  for (const char* bad :
       {"--flight-sample=-1", "--flight-sample=4294967296",
        "--timeline-interval-ms=-1", "--timeline-interval-ms=4294967296",
        "--ts-max-windows=-5", "--mem-budget=-1"}) {
    ArtifactOutputs outputs;
    EXPECT_THROW(outputs.bind(parse_flags({bad, "--sketch-out=unused"})),
                 CheckError)
        << bad;
    EXPECT_FALSE(recording(kRecObs)) << bad << " enabled a recorder";
  }
  ArtifactOutputs outputs;
  EXPECT_NO_THROW(outputs.bind(parse_flags({"--flight-sample=4294967295"})));
  EXPECT_FALSE(outputs.any());
}

TEST_F(ObsTest, BinderEnablesAndStampsTheRequestedRecorders) {
  ArtifactOutputs outputs;
  outputs.bind(parse_flags({"--sketch-out=unused", "--window=30",
                            "--slo=2.5,2.0,0.95"}));
  EXPECT_TRUE(outputs.any());
  EXPECT_TRUE(recording(kRecObs));
  EXPECT_EQ(obs_config().window_s, 30.0);
  EXPECT_EQ(obs_config().slo.response_s, 2.5);
  RunMeta meta;
  outputs.stamp(meta);
  ASSERT_EQ(meta.fields.size(), 2u);
  EXPECT_EQ(meta.fields[0].first, "sketch_alpha");
  EXPECT_EQ(meta.fields[1].first, "sketch_window_s");
  EXPECT_EQ(meta.fields[1].second, "30");
}

TEST_F(ObsTest, DisabledCostsNothing) {
  ExperimentConfig cfg;
  cfg.workload = testing::small_params();
  cfg.sim.requests_per_server = 100;
  cfg.runs = 1;
  ScenarioSpec spec;
  run_scenario(cfg, spec, nullptr);
  EXPECT_EQ(global_obs_log().size(), 0u);
}

}  // namespace
}  // namespace mmr
