#include "io/benchdiff.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/json.h"

namespace mmr {
namespace {

/// Builds an artifact with one series per (name, mean) pair; every series
/// gets `noise` as its stddev via three synthetic samples.
BenchArtifact artifact(
    const std::vector<std::tuple<std::string, double, double>>& series,
    const std::string& direction = "lower") {
  BenchArtifact a;
  a.tool = "synthetic";
  a.git_describe = "test";
  a.timestamp_utc = "2026-08-06T00:00:00Z";
  for (const auto& [name, mean, noise] : series) {
    BenchMeasurement m;
    m.name = name;
    m.direction = direction;
    // Three samples around `mean` whose sample stddev is exactly `noise`.
    m.samples = {mean - noise, mean, mean + noise};
    a.measurements.push_back(std::move(m));
  }
  a.finalize(/*iqr_k=*/100.0);  // keep the synthetic spread intact
  return a;
}

TEST(BenchDiff, PassWithinNoise) {
  // 2% drift on a 5%-threshold series: within noise on both bounds.
  const BenchArtifact base = artifact({{"wall_s", 10.0, 0.1}});
  const BenchArtifact cand = artifact({{"wall_s", 10.2, 0.1}});
  const BenchDiffReport r =
      diff_bench_artifacts(base, cand, BenchDiffOptions{});
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kPass);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.passes, 1u);
}

TEST(BenchDiff, RegressionBeyondThreshold) {
  const BenchArtifact base = artifact({{"wall_s", 10.0, 0.1}});
  const BenchArtifact cand = artifact({{"wall_s", 13.0, 0.1}});
  const BenchDiffReport r =
      diff_bench_artifacts(base, cand, BenchDiffOptions{});
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kRegression);
  EXPECT_NEAR(r.series[0].rel_delta, 0.30, 1e-9);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.regressions, 1u);
}

TEST(BenchDiff, ImprovementBeyondThreshold) {
  const BenchArtifact base = artifact({{"wall_s", 10.0, 0.1}});
  const BenchArtifact cand = artifact({{"wall_s", 7.0, 0.1}});
  const BenchDiffReport r =
      diff_bench_artifacts(base, cand, BenchDiffOptions{});
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kImprovement);
  EXPECT_TRUE(r.ok());  // improvements never fail the gate
  EXPECT_EQ(r.improvements, 1u);
}

TEST(BenchDiff, NoiseWidensTheThreshold) {
  // A 30% delta, but the candidate's stddev is enormous: 3-sigma bound
  // swallows the delta and the verdict stays pass.
  const BenchArtifact base = artifact({{"wall_s", 10.0, 0.1}});
  const BenchArtifact cand = artifact({{"wall_s", 13.0, 2.0}});
  const BenchDiffReport r =
      diff_bench_artifacts(base, cand, BenchDiffOptions{});
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kPass);
  EXPECT_GT(r.series[0].threshold, 3.0);
}

TEST(BenchDiff, HigherIsBetterFlipsTheSign) {
  const BenchArtifact base = artifact({{"throughput", 100.0, 1.0}}, "higher");
  const BenchArtifact down = artifact({{"throughput", 60.0, 1.0}}, "higher");
  const BenchArtifact up = artifact({{"throughput", 140.0, 1.0}}, "higher");
  EXPECT_EQ(diff_bench_artifacts(base, down, BenchDiffOptions{})
                .series[0]
                .verdict,
            SeriesVerdict::kRegression);
  EXPECT_EQ(diff_bench_artifacts(base, up, BenchDiffOptions{})
                .series[0]
                .verdict,
            SeriesVerdict::kImprovement);
}

TEST(BenchDiff, RegressRelTightensOnlyTheBadDirection) {
  // Symmetric bound 50%, bad-direction bound 20%: a 30% slowdown on a
  // higher-is-better series now fails, while the same-size speedup stays
  // judged against the loose symmetric bound (a mere improvement).
  BenchDiffOptions opt;
  opt.rel_threshold = 0.5;
  opt.regress_rel_threshold = 0.2;
  const BenchArtifact base = artifact({{"events_per_sec", 100.0, 0.5}},
                                      "higher");
  const BenchArtifact down = artifact({{"events_per_sec", 70.0, 0.5}},
                                      "higher");
  const BenchArtifact up = artifact({{"events_per_sec", 130.0, 0.5}},
                                    "higher");
  EXPECT_EQ(diff_bench_artifacts(base, down, opt).series[0].verdict,
            SeriesVerdict::kRegression);
  EXPECT_EQ(diff_bench_artifacts(base, up, opt).series[0].verdict,
            SeriesVerdict::kPass);
  // A speedup beyond even the symmetric bound is an improvement, not a
  // failure.
  const BenchArtifact way_up = artifact({{"events_per_sec", 170.0, 0.5}},
                                        "higher");
  const BenchDiffReport r = diff_bench_artifacts(base, way_up, opt);
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kImprovement);
  EXPECT_TRUE(r.ok());

  // Lower-is-better series tighten on increases instead.
  const BenchArtifact wall_base = artifact({{"wall_s", 10.0, 0.05}});
  const BenchArtifact wall_up = artifact({{"wall_s", 13.0, 0.05}});
  const BenchArtifact wall_down = artifact({{"wall_s", 7.0, 0.05}});
  EXPECT_EQ(diff_bench_artifacts(wall_base, wall_up, opt).series[0].verdict,
            SeriesVerdict::kRegression);
  EXPECT_EQ(
      diff_bench_artifacts(wall_base, wall_down, opt).series[0].verdict,
      SeriesVerdict::kPass);
}

TEST(BenchDiff, RegressRelIgnoresUndirectedSeries) {
  BenchDiffOptions opt;
  opt.rel_threshold = 0.5;
  opt.regress_rel_threshold = 0.05;
  const BenchArtifact base = artifact({{"info.count", 10.0, 0.0}}, "none");
  const BenchArtifact cand = artifact({{"info.count", 13.0, 0.0}}, "none");
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kPass);
  EXPECT_TRUE(r.ok());
}

TEST(BenchDiff, RegressRelInVerdictJson) {
  BenchDiffOptions opt;
  opt.regress_rel_threshold = 0.3;
  const BenchArtifact base = artifact({{"wall_s", 10.0, 0.1}});
  const BenchDiffReport r = diff_bench_artifacts(base, base, opt);
  std::ostringstream os;
  write_benchdiff_json(os, r, opt);
  const JsonValue v = json_parse(os.str());
  EXPECT_DOUBLE_EQ(v.at("thresholds").at("regress_rel_threshold").num_v,
                   0.3);
}

TEST(BenchDiff, DirectionNoneNeverFlags) {
  const BenchArtifact base = artifact({{"info.count", 10.0, 0.0}}, "none");
  const BenchArtifact cand = artifact({{"info.count", 99.0, 0.0}}, "none");
  const BenchDiffReport r =
      diff_bench_artifacts(base, cand, BenchDiffOptions{});
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kPass);
  EXPECT_TRUE(r.ok());
}

TEST(BenchDiff, MinAbsFloorIgnoresTinyDeltas) {
  // 50% regression on a microsecond-scale series, but below the absolute
  // floor the gate does not care.
  const BenchArtifact base = artifact({{"tiny_s", 1e-6, 0.0}});
  const BenchArtifact cand = artifact({{"tiny_s", 1.5e-6, 0.0}});
  BenchDiffOptions opt;
  opt.min_abs = 1e-3;
  EXPECT_EQ(diff_bench_artifacts(base, cand, opt).series[0].verdict,
            SeriesVerdict::kPass);
  EXPECT_EQ(diff_bench_artifacts(base, cand, BenchDiffOptions{})
                .series[0]
                .verdict,
            SeriesVerdict::kRegression);
}

TEST(BenchDiff, MissingSeriesFailsNewSeriesPasses) {
  const BenchArtifact base =
      artifact({{"gone_s", 1.0, 0.0}, {"stays_s", 1.0, 0.0}});
  const BenchArtifact cand =
      artifact({{"stays_s", 1.0, 0.0}, {"fresh_s", 1.0, 0.0}});
  const BenchDiffReport r =
      diff_bench_artifacts(base, cand, BenchDiffOptions{});
  ASSERT_EQ(r.series.size(), 3u);  // sorted: fresh_s, gone_s, stays_s
  EXPECT_EQ(r.series[0].name, "fresh_s");
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kNew);
  EXPECT_EQ(r.series[1].name, "gone_s");
  EXPECT_EQ(r.series[1].verdict, SeriesVerdict::kMissing);
  EXPECT_EQ(r.series[2].verdict, SeriesVerdict::kPass);
  EXPECT_EQ(r.unmatched, 2u);
  EXPECT_EQ(r.missing, 1u);
  EXPECT_EQ(r.regressions, 0u);
  // A gated series that vanished (renamed, no longer emitted) fails.
  EXPECT_FALSE(r.ok());
  EXPECT_STREQ(r.verdict(), "missing");
  std::ostringstream table;
  write_benchdiff_table(table, r);
  EXPECT_NE(table.str().find("gone_s"), std::string::npos);
  EXPECT_NE(table.str().find("verdict: MISSING"), std::string::npos);
  std::ostringstream json;
  write_benchdiff_json(json, r, BenchDiffOptions{});
  const JsonValue v = json_parse(json.str());
  EXPECT_EQ(v.at("verdict").str_v, "missing");
  EXPECT_EQ(v.at("missing").num_v, 1.0);
  EXPECT_EQ(v.at("series").at(std::size_t{1}).at("name").str_v, "gone_s");
  EXPECT_EQ(v.at("series").at(std::size_t{1}).at("verdict").str_v, "missing");

  // Only the candidate grew a series: that passes.
  const BenchDiffReport grown =
      diff_bench_artifacts(cand, artifact({{"stays_s", 1.0, 0.0},
                                           {"fresh_s", 1.0, 0.0},
                                           {"extra_s", 1.0, 0.0}}),
                           BenchDiffOptions{});
  EXPECT_EQ(grown.unmatched, 1u);
  EXPECT_TRUE(grown.ok());
  EXPECT_STREQ(grown.verdict(), "pass");
}

TEST(BenchDiff, MissingSeriesOutsideTheFilterIsIgnored) {
  const BenchArtifact base =
      artifact({{"a.wall_s", 1.0, 0.0}, {"a.timer.gone", 1.0, 0.0}});
  const BenchArtifact cand = artifact({{"a.wall_s", 1.0, 0.0}});
  BenchDiffOptions opt;
  opt.filters = {"wall_s"};
  EXPECT_TRUE(diff_bench_artifacts(base, cand, opt).ok());
  opt.filters = {"wall_s", "timer"};
  EXPECT_FALSE(diff_bench_artifacts(base, cand, opt).ok());
}

TEST(BenchDiff, FilterRestrictsComparedSeries) {
  const BenchArtifact base =
      artifact({{"a.wall_s", 1.0, 0.0}, {"a.other", 1.0, 0.0}});
  const BenchArtifact cand =
      artifact({{"a.wall_s", 10.0, 0.0}, {"a.other", 10.0, 0.0}});
  BenchDiffOptions opt;
  opt.filters = {"wall_s"};
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].name, "a.wall_s");
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kRegression);
}

TEST(BenchDiff, RepeatedFiltersMatchAnySubstring) {
  const BenchArtifact base = artifact(
      {{"a.wall_s", 1.0, 0.0}, {"a.peak_rss_bytes", 1.0, 0.0},
       {"a.other", 1.0, 0.0}});
  const BenchArtifact cand = artifact(
      {{"a.wall_s", 10.0, 0.0}, {"a.peak_rss_bytes", 10.0, 0.0},
       {"a.other", 10.0, 0.0}});
  BenchDiffOptions opt;
  opt.filters = {"wall_s", "peak_rss_bytes"};
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.series[0].name, "a.peak_rss_bytes");
  EXPECT_EQ(r.series[1].name, "a.wall_s");
}

TEST(BenchDiff, MemRelThresholdAppliesToByteSeries) {
  // 20% growth on both series; --rel=0.05 flags the timer, --mem-rel=0.35
  // tolerates the bytes.
  BenchArtifact base =
      artifact({{"wall_s", 10.0, 0.0}, {"peak_rss_bytes", 1000.0, 0.0}});
  BenchArtifact cand =
      artifact({{"wall_s", 12.0, 0.0}, {"peak_rss_bytes", 1200.0, 0.0}});
  for (BenchArtifact* a : {&base, &cand}) {
    for (BenchMeasurement& m : a->measurements) {
      if (m.name == "peak_rss_bytes") m.unit = "B";
    }
  }
  BenchDiffOptions opt;
  opt.mem_rel_threshold = 0.35;
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.series[0].name, "peak_rss_bytes");
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kPass);
  EXPECT_EQ(r.series[1].name, "wall_s");
  EXPECT_EQ(r.series[1].verdict, SeriesVerdict::kRegression);
}

TEST(BenchDiff, TailRelThresholdAppliesToP99Series) {
  // 20% drift on every series; --rel=0.05 flags the mean, --tail-rel=0.30
  // tolerates the sketch-derived tails (p99 AND p999 both contain "p99").
  const BenchArtifact base = artifact({{"stretch_mean", 10.0, 0.0},
                                       {"stretch_p99", 10.0, 0.0},
                                       {"stretch_p999", 10.0, 0.0}});
  const BenchArtifact cand = artifact({{"stretch_mean", 12.0, 0.0},
                                       {"stretch_p99", 12.0, 0.0},
                                       {"stretch_p999", 12.0, 0.0}});
  BenchDiffOptions opt;
  opt.tail_rel_threshold = 0.30;
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  ASSERT_EQ(r.series.size(), 3u);
  EXPECT_EQ(r.series[0].name, "stretch_mean");
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kRegression);
  EXPECT_EQ(r.series[1].verdict, SeriesVerdict::kPass);
  EXPECT_EQ(r.series[2].verdict, SeriesVerdict::kPass);
  // The byte-series override wins over the tail override if both match.
  EXPECT_DOUBLE_EQ(r.series[1].threshold, 3.0);
}

TEST(BenchDiff, RelOverrideAppliesPerPrefix) {
  // 20% drift everywhere; the tiers get their own bounds: small tolerates
  // 30%, large only 5%, series outside the overrides keep the default.
  const BenchArtifact base = artifact({{"scale.small.solve_wall_s", 10.0, 0.0},
                                       {"scale.large.solve_wall_s", 10.0, 0.0},
                                       {"other.wall_s", 10.0, 0.0}});
  const BenchArtifact cand = artifact({{"scale.small.solve_wall_s", 12.0, 0.0},
                                       {"scale.large.solve_wall_s", 12.0, 0.0},
                                       {"other.wall_s", 12.0, 0.0}});
  BenchDiffOptions opt;
  opt.rel_overrides = {{"scale.small.", 0.30}, {"scale.large.", 0.05}};
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  ASSERT_EQ(r.series.size(), 3u);  // sorted: other, scale.large, scale.small
  EXPECT_EQ(r.series[0].name, "other.wall_s");
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kRegression);
  EXPECT_EQ(r.series[1].name, "scale.large.solve_wall_s");
  EXPECT_EQ(r.series[1].verdict, SeriesVerdict::kRegression);
  EXPECT_EQ(r.series[2].name, "scale.small.solve_wall_s");
  EXPECT_EQ(r.series[2].verdict, SeriesVerdict::kPass);
}

TEST(BenchDiff, RelOverrideLongestPrefixWins) {
  const BenchArtifact base = artifact({{"scale.small.solve_wall_s", 10.0, 0.0},
                                       {"scale.large.solve_wall_s", 10.0, 0.0}});
  const BenchArtifact cand = artifact({{"scale.small.solve_wall_s", 12.0, 0.0},
                                       {"scale.large.solve_wall_s", 12.0, 0.0}});
  BenchDiffOptions opt;
  // Broad bound for every scale series, tightened for the large tier; the
  // declaration order must not matter.
  opt.rel_overrides = {{"scale.large.", 0.05}, {"scale.", 0.30}};
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  EXPECT_EQ(r.series[0].name, "scale.large.solve_wall_s");
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kRegression);
  EXPECT_EQ(r.series[1].name, "scale.small.solve_wall_s");
  EXPECT_EQ(r.series[1].verdict, SeriesVerdict::kPass);
}

TEST(BenchDiff, RelOverrideBeatsMemAndTailSpecializations) {
  // A byte-unit p99 series matched by a prefix override: the override's
  // bound is the one applied, not --mem-rel or --tail-rel.
  BenchArtifact base = artifact({{"scale.small.p99_bytes", 1000.0, 0.0}});
  BenchArtifact cand = artifact({{"scale.small.p99_bytes", 1200.0, 0.0}});
  for (BenchArtifact* a : {&base, &cand}) {
    a->measurements[0].unit = "B";
  }
  BenchDiffOptions opt;
  opt.mem_rel_threshold = 0.35;
  opt.tail_rel_threshold = 0.35;
  opt.rel_overrides = {{"scale.small.", 0.05}};
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kRegression);
  EXPECT_DOUBLE_EQ(r.series[0].threshold, 50.0);
}

TEST(BenchDiff, RelOverridesInVerdictJson) {
  const BenchArtifact base = artifact({{"scale.small.solve_wall_s", 1.0, 0.0}});
  const BenchArtifact cand = artifact({{"scale.small.solve_wall_s", 1.0, 0.0}});
  BenchDiffOptions opt;
  opt.rel_overrides = {{"scale.small.", 0.30}};
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  std::ostringstream os;
  write_benchdiff_json(os, r, opt);
  const JsonValue v = json_parse(os.str());
  const JsonValue& overrides = v.at("thresholds").at("rel_overrides");
  ASSERT_EQ(overrides.arr.size(), 1u);
  EXPECT_EQ(overrides.at(std::size_t{0}).at("prefix").str_v, "scale.small.");
  EXPECT_DOUBLE_EQ(overrides.at(std::size_t{0}).at("rel").num_v, 0.30);
}

TEST(BenchDiff, TailRelThresholdInVerdictJson) {
  const BenchArtifact base = artifact({{"stretch_p99", 10.0, 0.0}});
  const BenchArtifact cand = artifact({{"stretch_p99", 10.1, 0.0}});
  BenchDiffOptions opt;
  opt.tail_rel_threshold = 0.25;
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  std::ostringstream os;
  write_benchdiff_json(os, r, opt);
  const JsonValue v = json_parse(os.str());
  EXPECT_DOUBLE_EQ(v.at("thresholds").at("tail_rel_threshold").num_v, 0.25);
}

TEST(BenchDiff, ZeroBaselineMeanDoesNotDivide) {
  const BenchArtifact base = artifact({{"zero", 0.0, 0.0}});
  const BenchArtifact cand = artifact({{"zero", 1.0, 0.0}});
  const BenchDiffReport r =
      diff_bench_artifacts(base, cand, BenchDiffOptions{});
  EXPECT_DOUBLE_EQ(r.series[0].rel_delta, 0.0);
  // rel threshold is 0 at a zero baseline; the delta still trips the gate.
  EXPECT_EQ(r.series[0].verdict, SeriesVerdict::kRegression);
}

TEST(BenchDiff, VerdictJsonIsParseable) {
  const BenchArtifact base = artifact({{"wall_s", 10.0, 0.1}});
  const BenchArtifact cand = artifact({{"wall_s", 13.0, 0.1}});
  BenchDiffOptions opt;
  opt.filters = {"wall"};
  const BenchDiffReport r = diff_bench_artifacts(base, cand, opt);
  std::ostringstream os;
  write_benchdiff_json(os, r, opt);
  const JsonValue v = json_parse(os.str());
  EXPECT_EQ(v.at("verdict").str_v, "regression");
  EXPECT_EQ(v.at("regressions").num_v, 1.0);
  ASSERT_EQ(v.at("thresholds").at("filters").arr.size(), 1u);
  EXPECT_EQ(v.at("thresholds").at("filters").at(std::size_t{0}).str_v, "wall");
  ASSERT_EQ(v.at("series").arr.size(), 1u);
  EXPECT_EQ(v.at("series").at(std::size_t{0}).at("verdict").str_v,
            "regression");
}

TEST(BenchDiff, HumanTableMentionsEverySeries) {
  const BenchArtifact base = artifact({{"wall_s", 10.0, 0.1}});
  const BenchArtifact cand = artifact({{"wall_s", 13.0, 0.1}});
  const BenchDiffReport r =
      diff_bench_artifacts(base, cand, BenchDiffOptions{});
  std::ostringstream os;
  write_benchdiff_table(os, r);
  EXPECT_NE(os.str().find("wall_s"), std::string::npos);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
}

}  // namespace
}  // namespace mmr
