#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/provenance.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/memacct.h"

namespace mmr {
namespace {

/// Every test must leave the process-wide collector exactly as it found
/// it: the recording scope restores the mask and empties the log; the cap
/// and config go back to their defaults.
class TimeseriesTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    global_timeseries_log().set_max_shards(100'000);
    set_timeseries_config(TimeseriesConfig{});
  }

  const testing::RecordingScope scope_;
};

/// Replaces the unique occurrence of `from` in `text`; fails the test if
/// the needle is absent or ambiguous (the tamper would silently miss).
std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "tamper needle not found: " << from;
  EXPECT_EQ(text.find(from, pos + 1), std::string::npos)
      << "tamper needle ambiguous: " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

/// A small physically-consistent shard: one site server plus the
/// repository, 10 s windows, one job each.
TimeseriesShard make_shard() {
  TimeseriesConfig cfg;
  cfg.window_s = 10.0;
  TimeseriesShard sh(cfg, 1);
  sh.policy = "local";
  sh.mode = FlightMode::kDes;
  sh.server_concurrency = 1;
  sh.repo_concurrency = 1;
  sh.horizon_s = 30.0;
  StationSeries& s = sh.server(0);
  // One job: arrives at t=1, service [1, 4), done.
  s.on_arrival(1);
  s.on_started(1, 0, 4);
  s.sample(1, 0, 1);
  s.on_served(4);
  s.sample(4, 0, 0);
  StationSeries& r = sh.repository();
  // One repository job crossing the window boundary: service [8, 12).
  r.on_arrival(8);
  r.on_started(8, 0, 12);
  r.sample(8, 0, 1);
  r.on_served(12);
  r.sample(12, 0, 0);
  sh.des_arrivals = 1;
  sh.des_completions = 1;
  sh.des_server_busy_s = 3.0;
  sh.des_repo_busy_s = 4.0;
  return sh;
}

// ---------------------------------------------------------------------------
// StationSeries

TEST_F(TimeseriesTest, WindowBucketing) {
  StationSeries s;
  s.reset(10.0);
  s.on_arrival(0.0);
  s.on_arrival(9.999);
  s.on_arrival(10.0);  // boundary belongs to the next window
  s.on_arrival(25.0);
  ASSERT_EQ(s.cells().size(), 3u);
  EXPECT_EQ(s.cells().at(0).arrivals, 2u);
  EXPECT_EQ(s.cells().at(1).arrivals, 1u);
  EXPECT_EQ(s.cells().at(2).arrivals, 1u);
  EXPECT_EQ(s.arrivals, 4u);

  s.on_served(10.0);
  s.on_redirected(20.0);
  s.on_rejected(20.0);
  EXPECT_EQ(s.cells().at(1).served, 1u);
  EXPECT_EQ(s.cells().at(2).redirected, 1u);
  EXPECT_EQ(s.cells().at(2).rejected, 1u);
  EXPECT_EQ(s.served, 1u);
  EXPECT_EQ(s.redirected, 1u);
  EXPECT_EQ(s.rejected, 1u);
}

TEST_F(TimeseriesTest, BusySpreadAcrossWindowBoundaries) {
  StationSeries s;
  s.reset(10.0);
  s.on_started(5.0, 1.5, 27.0);  // service overlaps windows 0, 1, 2
  EXPECT_DOUBLE_EQ(s.busy_spread_s, 22.0);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_DOUBLE_EQ(s.time_in_station_s, 23.5);  // wait + service
  ASSERT_EQ(s.cells().size(), 3u);
  EXPECT_DOUBLE_EQ(s.cells().at(0).busy_s, 5.0);
  EXPECT_DOUBLE_EQ(s.cells().at(1).busy_s, 10.0);
  EXPECT_DOUBLE_EQ(s.cells().at(2).busy_s, 7.0);

  // Zero-length and inverted intervals spread no busy time.
  s.on_started(3.0, 0.0, 3.0);
  s.on_started(9.0, 0.0, 8.0);
  EXPECT_DOUBLE_EQ(s.busy_spread_s, 22.0);
  EXPECT_DOUBLE_EQ(s.cells().at(0).busy_s, 5.0);
}

TEST_F(TimeseriesTest, OccupancyIntegralAndDepthStats) {
  StationSeries s;
  s.reset(10.0);
  s.sample(0.0, 0, 1);  // occupancy 1 from t=0
  EXPECT_DOUBLE_EQ(s.occupancy_area_s, 0.0);
  s.sample(4.0, 1, 1);  // 4 s at occupancy 1, then occupancy 2
  EXPECT_DOUBLE_EQ(s.occupancy_area_s, 4.0);
  s.sample(10.0, 0, 0);  // 6 s at occupancy 2
  EXPECT_DOUBLE_EQ(s.occupancy_area_s, 16.0);

  const TsCell& w0 = s.cells().at(0);
  EXPECT_EQ(w0.depth_samples, 2u);
  EXPECT_DOUBLE_EQ(w0.depth_sum, 1.0);
  EXPECT_EQ(w0.depth_max, 1u);
  EXPECT_EQ(w0.inflight_max, 1u);
  EXPECT_EQ(s.cells().at(1).depth_samples, 1u);
  EXPECT_EQ(s.time_violations, 0u);
}

TEST_F(TimeseriesTest, BackwardsTimeIsCountedNotIntegrated) {
  StationSeries s;
  s.reset(10.0);
  s.sample(5.0, 0, 2);
  s.sample(3.0, 1, 1);  // virtual time went backwards
  EXPECT_EQ(s.time_violations, 1u);
  EXPECT_DOUBLE_EQ(s.last_t(), 5.0);  // the clock never rewinds
  EXPECT_DOUBLE_EQ(s.occupancy_area_s, 0.0);
  s.sample(7.0, 0, 0);
  EXPECT_EQ(s.time_violations, 1u);
  EXPECT_DOUBLE_EQ(s.last_t(), 7.0);
}

TEST_F(TimeseriesTest, CopyDropsHotCellCacheSafely) {
  StationSeries a;
  a.reset(10.0);
  a.on_arrival(5.0);
  StationSeries b = a;  // copy must not alias a's hot-cell cache
  b.on_arrival(5.0);    // would write through a dangling cache otherwise
  b.on_arrival(15.0);
  EXPECT_EQ(a.cells().at(0).arrivals, 1u);
  EXPECT_EQ(b.cells().at(0).arrivals, 2u);
  EXPECT_EQ(b.cells().at(1).arrivals, 1u);
  EXPECT_EQ(a.arrivals, 1u);
  EXPECT_EQ(b.arrivals, 3u);
}

TEST_F(TimeseriesTest, MergeSumsCellsAndTotals) {
  StationSeries a;
  a.reset(10.0);
  a.on_arrival(5.0);
  a.on_started(0.0, 0.0, 4.0);
  a.sample(4.0, 2, 1);
  StationSeries b;
  b.reset(10.0);
  b.on_arrival(5.0);
  b.on_arrival(15.0);
  b.on_started(2.0, 0.0, 8.0);
  b.sample(8.0, 1, 3);
  a.merge(b);
  EXPECT_EQ(a.arrivals, 3u);
  EXPECT_DOUBLE_EQ(a.busy_spread_s, 10.0);
  const TsCell& w0 = a.cells().at(0);
  EXPECT_EQ(w0.arrivals, 2u);
  EXPECT_DOUBLE_EQ(w0.busy_s, 10.0);
  EXPECT_EQ(w0.depth_samples, 2u);
  EXPECT_EQ(w0.depth_max, 2u);    // max, not sum
  EXPECT_EQ(w0.inflight_max, 3u);
  EXPECT_EQ(a.cells().at(1).arrivals, 1u);

  StationSeries incompatible;
  incompatible.reset(3.0);  // 10/3 is not a power of two
  EXPECT_THROW(a.merge(incompatible), CheckError);
}

TEST_F(TimeseriesTest, MergeCoarsensTheFinerSeries) {
  StationSeries coarse;
  coarse.reset(20.0);
  coarse.on_arrival(5.0);
  StationSeries fine;
  fine.reset(10.0);  // same base, one fold behind
  fine.on_arrival(5.0);
  fine.on_arrival(15.0);
  fine.on_started(8.0, 0.0, 12.0);
  coarse.merge(fine);
  EXPECT_DOUBLE_EQ(coarse.window_s(), 20.0);
  EXPECT_EQ(coarse.cells().size(), 1u);  // fine's windows 0 and 1 fold in
  EXPECT_EQ(coarse.cells().at(0).arrivals, 3u);
  EXPECT_DOUBLE_EQ(coarse.cells().at(0).busy_s, 4.0);

  // The coarser side wins regardless of merge direction.
  StationSeries fine2;
  fine2.reset(10.0);
  fine2.on_arrival(35.0);  // fine window 3 → coarse window 1
  fine2.merge(coarse);
  EXPECT_DOUBLE_EQ(fine2.window_s(), 20.0);
  EXPECT_EQ(fine2.cells().at(0).arrivals, 3u);
  EXPECT_EQ(fine2.cells().at(1).arrivals, 1u);
}

TEST_F(TimeseriesTest, WindowsCoarsenToStayUnderTheCellCap) {
  StationSeries s;
  s.reset(1.0, 4);  // at most 4 cells; width doubles as time grows
  for (int t = 0; t < 16; ++t) s.on_arrival(t + 0.5);
  // 16 seconds of arrivals under a 4-cell cap → width 1 → 2 → 4.
  EXPECT_DOUBLE_EQ(s.window_s(), 4.0);
  EXPECT_EQ(s.cells().size(), 4u);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(s.cells().at(w).arrivals, 4u);  // folds are exact sums
  }
  EXPECT_EQ(s.arrivals, 16u);

  // Busy time survives folding exactly, and on_started itself coarsens
  // (t = 32 on the cap boundary folds twice: width 4 → 8 → 16).
  s.on_started(0.0, 0.0, 32.0);
  EXPECT_DOUBLE_EQ(s.window_s(), 16.0);
  EXPECT_EQ(s.cells().size(), 2u);
  double busy = 0;
  for (const auto& [w, c] : s.cells()) busy += c.busy_s;
  EXPECT_DOUBLE_EQ(busy, 32.0);
  EXPECT_DOUBLE_EQ(s.busy_spread_s, 32.0);
  EXPECT_EQ(s.cells().at(0).arrivals, 16u);
}

// ---------------------------------------------------------------------------
// TimeseriesShard and TimeseriesLog

TEST_F(TimeseriesTest, ShardLayoutAndMerge) {
  TimeseriesConfig cfg;
  cfg.window_s = 10.0;
  TimeseriesShard a(cfg, 3);
  EXPECT_EQ(a.num_servers(), 3u);
  EXPECT_EQ(a.stations.size(), 4u);
  EXPECT_EQ(&a.repository(), &a.stations.back());

  a.runs = 1;
  a.horizon_s = 10.0;
  a.des_arrivals = 5;
  a.server_concurrency = 2;
  TimeseriesShard b(cfg, 3);
  b.runs = 2;
  b.horizon_s = 20.0;
  b.des_arrivals = 7;
  b.server_concurrency = 4;
  b.server(1).on_arrival(3.0);
  a.merge(b);
  EXPECT_EQ(a.runs, 3u);
  EXPECT_DOUBLE_EQ(a.horizon_s, 30.0);
  EXPECT_EQ(a.des_arrivals, 12u);
  EXPECT_EQ(a.server_concurrency, 4u);
  EXPECT_EQ(a.server(1).arrivals, 1u);

  TimeseriesShard wider(cfg, 4);
  EXPECT_THROW(a.merge(wider), CheckError);
}

TEST_F(TimeseriesTest, LogSnapshotMergesPerPolicyModeGroup) {
  TimeseriesLog& log = global_timeseries_log();
  TimeseriesShard s1 = make_shard();
  s1.run = 2;
  TimeseriesShard s2 = make_shard();
  s2.run = 1;
  TimeseriesShard s3 = make_shard();
  s3.policy = "remote";
  EXPECT_EQ(memacct::current_bytes(memacct::Category::kObsTimeseries), 0u);
  log.add(std::move(s1));
  log.add(std::move(s2));
  log.add(std::move(s3));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_GT(memacct::current_bytes(memacct::Category::kObsTimeseries), 0u);

  const std::vector<TimeseriesShard> groups = log.snapshot();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].policy, "local");
  EXPECT_EQ(groups[0].runs, 2u);
  EXPECT_EQ(groups[0].run, 1u);  // the group's smallest run id
  EXPECT_EQ(groups[0].des_arrivals, 2u);
  EXPECT_EQ(groups[0].stations[0].arrivals, 2u);
  EXPECT_EQ(groups[1].policy, "remote");
  EXPECT_EQ(groups[1].runs, 1u);

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(memacct::current_bytes(memacct::Category::kObsTimeseries), 0u);
}

TEST_F(TimeseriesTest, LogDropsBeyondMaxShards) {
  TimeseriesLog& log = global_timeseries_log();
  log.set_max_shards(1);
  log.add(make_shard());
  log.add(make_shard());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.dropped(), 1u);
}

// ---------------------------------------------------------------------------
// mmr-timeseries artifact

std::string write_shard_text(const TimeseriesShard& shard) {
  TimeseriesConfig cfg;
  cfg.window_s = shard.window_s;
  std::ostringstream os;
  write_timeseries_jsonl(os, {shard}, cfg, 0, RunMeta{});
  return os.str();
}

TEST_F(TimeseriesTest, ArtifactRoundTrip) {
  const std::string text = write_shard_text(make_shard());
  const TimeseriesDoc doc = parse_timeseries_jsonl(text);
  EXPECT_EQ(doc.schema, "mmr-timeseries");
  EXPECT_EQ(doc.version, 1);
  EXPECT_DOUBLE_EQ(doc.window_s, 10.0);
  EXPECT_EQ(doc.of_type("series").size(), 1u);
  EXPECT_EQ(doc.of_type("station").size(), 2u);
  // Server: all in window 0. Repository: its service crosses into window 1.
  EXPECT_EQ(doc.of_type("window").size(), 3u);
  EXPECT_TRUE(doc.has_summary);
  EXPECT_EQ(doc.declared_events, doc.events.size());
  EXPECT_EQ(doc.declared_dropped, 0u);

  const JsonValue& repo = *doc.of_type("station")[1];
  EXPECT_DOUBLE_EQ(repo.at("station").num_v, kRepositoryStation);
  EXPECT_DOUBLE_EQ(repo.at("busy_s").num_v, 4.0);
}

TEST_F(TimeseriesTest, ParserRejectsTamperedDocuments) {
  const std::string text = write_shard_text(make_shard());
  ASSERT_NO_THROW(parse_timeseries_jsonl(text));

  // Wrong schema name.
  EXPECT_THROW(parse_timeseries_jsonl(replace_once(
                   text, "\"schema\":\"mmr-timeseries\"",
                   "\"schema\":\"mmr-bogus\"")),
               CheckError);
  // Station totals no longer match the window sums beneath them.
  EXPECT_THROW(parse_timeseries_jsonl(replace_once(
                   text, "\"station\":0,\"window_s\":10,\"arrivals\":1",
                   "\"station\":0,\"window_s\":10,\"arrivals\":2")),
               CheckError);
  // Station width that is not a power-of-two multiple of the base.
  EXPECT_THROW(parse_timeseries_jsonl(replace_once(
                   text, "\"station\":0,\"window_s\":10",
                   "\"station\":0,\"window_s\":30")),
               CheckError);
  // Summary event count disagrees with the lines present.
  EXPECT_THROW(parse_timeseries_jsonl(replace_once(
                   text, "\"type\":\"summary\",\"events\":6",
                   "\"type\":\"summary\",\"events\":7")),
               CheckError);
  // Unknown event type.
  EXPECT_THROW(parse_timeseries_jsonl(replace_once(
                   text, "{\"type\":\"summary\"",
                   "{\"type\":\"bogus\"}\n{\"type\":\"summary\"")),
               CheckError);
  // Truncated: no summary line.
  const std::size_t cut = text.find("{\"type\":\"summary\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_THROW(parse_timeseries_jsonl(text.substr(0, cut)), CheckError);
  // A window line with no station line before it.
  const std::string orphan =
      text.substr(0, text.find('\n') + 1) +
      R"({"type":"window","policy":"local","mode":"des","station":0,)"
      R"("window":0,"t_start_s":0,"arrivals":0,"served":0,"redirected":0,)"
      R"("rejected":0,"depth_max":0,"depth_mean":0,"inflight_max":0,)"
      R"("busy_s":0,"util":0})"
      "\n";
  EXPECT_THROW(parse_timeseries_jsonl(orphan), CheckError);
  // Empty input.
  EXPECT_THROW(parse_timeseries_jsonl(""), CheckError);
  // Envelope rules: version 1 only, non-negative integer counts.
  EXPECT_THROW(parse_timeseries_jsonl(
                   replace_once(text, "\"version\":1", "\"version\":0")),
               CheckError);
  EXPECT_THROW(parse_timeseries_jsonl(replace_once(
                   text, "\"type\":\"summary\",\"events\":6",
                   "\"type\":\"summary\",\"events\":6e300")),
               CheckError);
  EXPECT_THROW(parse_timeseries_jsonl(replace_once(
                   text, "\"dropped\":0", "\"dropped\":-1")),
               CheckError);
}

TEST_F(TimeseriesTest, ConfigRejectsNonPositiveWindow) {
  TimeseriesConfig cfg;
  cfg.window_s = 0.0;
  EXPECT_THROW(set_timeseries_config(cfg), CheckError);
  cfg.window_s = -5.0;
  EXPECT_THROW(set_timeseries_config(cfg), CheckError);
  cfg.window_s = 10.0;
  cfg.max_windows = 1;  // cannot fold below two cells
  EXPECT_THROW(set_timeseries_config(cfg), CheckError);
  cfg.max_windows = 0;  // unlimited is fine
  EXPECT_NO_THROW(set_timeseries_config(cfg));
}

}  // namespace
}  // namespace mmr
