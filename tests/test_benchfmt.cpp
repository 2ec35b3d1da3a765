#include "io/benchfmt.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/check.h"
#include "util/metrics.h"
#include "util/stats.h"

namespace mmr {
namespace {

BenchArtifact sample_artifact() {
  BenchArtifact a;
  a.tool = "test_tool";
  a.git_describe = "abc123";
  a.timestamp_utc = "2026-08-06T00:00:00Z";
  a.meta.emplace_back("base_seed", "42");
  a.meta.emplace_back("threads", "4");
  BenchMeasurement wall;
  wall.name = "harness.wall_s";
  wall.unit = "s";
  wall.warmup = 1;
  wall.samples = {9.0, 1.0, 1.1, 0.9, 1.05, 0.95};
  BenchMeasurement thr;
  thr.name = "core.throughput";
  thr.unit = "items/s";
  thr.direction = "higher";
  thr.samples = {100.0, 101.0, 99.0};
  a.measurements = {wall, thr};
  a.finalize();
  return a;
}

TEST(BenchStats, WarmupDiscard) {
  // The first sample (a cold-start outlier by construction) never enters
  // the stats when warmup = 1.
  const BenchStats s = compute_bench_stats({50.0, 1.0, 1.2, 0.8, 1.0}, 1);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.discarded, 1u);
  EXPECT_NEAR(s.mean, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.max, 1.2);
}

TEST(BenchStats, IqrOutlierRejection) {
  // Nine tight samples and one 100x spike: Tukey fences reject the spike.
  std::vector<double> samples(9, 1.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] += 0.01 * static_cast<double>(i);
  }
  samples.push_back(100.0);
  const BenchStats s = compute_bench_stats(samples, 0);
  EXPECT_EQ(s.count, 9u);
  EXPECT_EQ(s.discarded, 1u);
  EXPECT_LT(s.max, 2.0);
  EXPECT_NEAR(s.mean, 1.04, 1e-9);
}

TEST(BenchStats, IqrSkippedForTinySeries) {
  // Fewer than 4 kept samples: no rejection, even with a wild outlier.
  const BenchStats s = compute_bench_stats({1.0, 1.0, 100.0}, 0);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.discarded, 0u);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(BenchStats, PercentileMath) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  // Keep the IQR step from trimming the uniform ramp's ends.
  const BenchStats s = compute_bench_stats(samples, 0, /*iqr_k=*/100.0);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-12);   // linear interpolation between 50, 51
  EXPECT_NEAR(s.p95, 95.05, 1e-12);
  EXPECT_NEAR(s.p99, 99.01, 1e-12);
  EXPECT_NEAR(s.mean, 50.5, 1e-12);
}

TEST(BenchStats, AllSamplesConsumedByWarmup) {
  const BenchStats s = compute_bench_stats({1.0, 2.0}, 5);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.discarded, 2u);
}

TEST(BenchFmt, RoundTripIsByteStable) {
  const BenchArtifact a = sample_artifact();
  std::ostringstream first;
  write_bench_json(first, a);
  const BenchArtifact parsed = parse_bench_json(first.str());
  std::ostringstream second;
  write_bench_json(second, parsed);
  EXPECT_EQ(first.str(), second.str());
}

TEST(BenchFmt, RoundTripPreservesContent) {
  const BenchArtifact a = sample_artifact();
  std::ostringstream os;
  write_bench_json(os, a);
  const BenchArtifact b = parse_bench_json(os.str());
  EXPECT_EQ(b.schema_version, kBenchSchemaVersion);
  EXPECT_EQ(b.tool, "test_tool");
  EXPECT_EQ(b.git_describe, "abc123");
  EXPECT_EQ(b.timestamp_utc, "2026-08-06T00:00:00Z");
  ASSERT_EQ(b.measurements.size(), 2u);
  const BenchMeasurement* wall = b.find("harness.wall_s");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->warmup, 1u);
  EXPECT_EQ(wall->samples.size(), 6u);
  EXPECT_DOUBLE_EQ(wall->samples[0], 9.0);
  const BenchMeasurement* thr = b.find("core.throughput");
  ASSERT_NE(thr, nullptr);
  EXPECT_EQ(thr->direction, "higher");
  EXPECT_EQ(thr->unit, "items/s");
  EXPECT_EQ(thr->stats.count, 3u);
}

TEST(BenchFmt, StableFieldOrdering) {
  // Measurements come out sorted by name; meta fields sorted by key.
  const BenchArtifact a = sample_artifact();
  ASSERT_EQ(a.measurements.size(), 2u);
  EXPECT_EQ(a.measurements[0].name, "core.throughput");
  EXPECT_EQ(a.measurements[1].name, "harness.wall_s");
  std::ostringstream os;
  write_bench_json(os, a);
  const std::string text = os.str();
  EXPECT_LT(text.find("\"base_seed\""), text.find("\"threads\""));
  EXPECT_LT(text.find("\"schema_version\""), text.find("\"run_meta\""));
  EXPECT_LT(text.find("\"run_meta\""), text.find("\"measurements\""));
}

TEST(BenchFmt, RejectsBadSchemaVersion) {
  EXPECT_THROW(
      parse_bench_json(
          R"({"schema_version": 99, "run_meta": {"tool": "t",
             "git_describe": "g", "timestamp_utc": "z"},
             "measurements": []})"),
      CheckError);
  EXPECT_THROW(parse_bench_json("[]"), CheckError);
  EXPECT_THROW(parse_bench_json("{"), CheckError);
}

TEST(BenchFmt, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bench_rt.json";
  const BenchArtifact a = sample_artifact();
  write_bench_file(path, a);
  const BenchArtifact b = read_bench_file(path);
  EXPECT_EQ(b.tool, a.tool);
  EXPECT_EQ(b.measurements.size(), a.measurements.size());
  EXPECT_THROW(read_bench_file(path + ".does-not-exist"), CheckError);
}

TEST(BenchCollector, RecordsAndBuilds) {
  BenchCollector c;
  EXPECT_TRUE(c.empty());
  c.record("a.wall_s", "s", 1.0);
  c.record("a.wall_s", "s", 1.1);
  c.record("b.count", "1", 7.0, "none");
  EXPECT_EQ(c.series_count(), 2u);
  RunMeta meta;
  meta.add("base_seed", std::uint64_t{9});
  const BenchArtifact a = c.build("tool_x", meta, /*warmup=*/1);
  ASSERT_EQ(a.measurements.size(), 2u);
  const BenchMeasurement* wall = a.find("a.wall_s");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->warmup, 1u);
  EXPECT_EQ(wall->stats.count, 1u);
  EXPECT_DOUBLE_EQ(wall->stats.mean, 1.1);
  // Warmup clamps so a series never loses its last sample.
  const BenchMeasurement* count = a.find("b.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->direction, "none");
  EXPECT_EQ(count->stats.count, 1u);
}

TEST(BenchCollector, GaugeSeriesRecordsLastValue) {
  MetricsRegistry reg;
  reg.gauge("solver.d").set(123.0);
  reg.gauge("solver.d").set(100.0);

  BenchCollector c;
  record_gauge_series(c, reg.snapshot());
  const BenchArtifact a = c.build("t", RunMeta{}, 0);
  const BenchMeasurement* gauge = a.find("gauge.solver.d");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->samples.at(0), 100.0);
  EXPECT_EQ(a.measurements.size(), 1u);
}

}  // namespace
}  // namespace mmr
