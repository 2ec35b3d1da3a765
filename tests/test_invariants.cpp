#include "obs/invariants.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/static_policies.h"
#include "obs/timeseries.h"
#include "sim/des.h"
#include "test_helpers.h"
#include "util/check.h"
#include "workload/generator.h"

namespace mmr {
namespace {

/// Every test must leave the process-wide collector exactly as it found
/// it: the recording scope restores the mask and empties the log; the
/// config goes back to its default.
class InvariantsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() { set_timeseries_config(TimeseriesConfig{}); }

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

/// Runs one DES simulate with the collector on and returns the canonical
/// per-(policy, mode) groups.
std::vector<TimeseriesShard> collect(const SystemModel& sys,
                                     const DesParams& p, std::uint64_t seed) {
  const testing::RecordingScope timeseries(kRecTimeseries);
  const DesSimulator sim(sys, p);
  (void)sim.simulate(make_local_assignment(sys), seed);
  return global_timeseries_log().snapshot();
}

const InvariantCheck* find_check(const InvariantsReport& report,
                                 const std::string& law,
                                 std::int32_t station) {
  for (const InvariantCheck& c : report.checks) {
    if (c.law == law && c.per_station && c.station == station) return &c;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// audit_timeseries on real DES runs

TEST_F(InvariantsTest, AuditPassesOnContendedRedirectRun) {
  const SystemModel sys = generate_workload(testing::small_params(), 302);
  DesParams p;
  p.requests_per_server = 400;
  p.server_concurrency = 2;
  p.queue_cap = 4;  // force overflow at nominal load
  p.overflow = OverflowPolicy::kRedirect;
  const auto groups = collect(sys, p, 7);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_GT(groups[0].des_redirects, 0u);

  const InvariantsReport report = audit_timeseries(groups);
  // Four per-station laws per station (servers + repository) plus the
  // run-level flow and the two utilization cross-checks.
  const std::size_t stations = sys.num_servers() + 1u;
  EXPECT_EQ(report.checks.size(), stations * 4 + 3);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.all_ok());

  // Little's law is two summations of the same per-job terms: the residual
  // is pure fp noise, orders of magnitude below the gate.
  for (const InvariantCheck& c : report.checks) {
    if (c.law == "little") EXPECT_LT(c.error, 1e-9);
  }
}

TEST_F(InvariantsTest, AuditPassesUnderRejectAndPs) {
  const SystemModel sys = generate_workload(testing::small_params(), 303);
  DesParams reject;
  reject.requests_per_server = 400;
  reject.server_concurrency = 1;
  reject.queue_cap = 0;  // no waiting room: every overflow is a drop
  reject.overflow = OverflowPolicy::kReject;
  const auto rejected = collect(sys, reject, 7);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_GT(rejected[0].des_rejects, 0u);
  EXPECT_TRUE(audit_timeseries(rejected).all_ok());

  DesParams ps;
  ps.requests_per_server = 400;
  ps.discipline = QueueDiscipline::kPs;
  const auto shared = collect(sys, ps, 7);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_TRUE(audit_timeseries(shared).all_ok());
}

TEST_F(InvariantsTest, AuditFlagsCorruptedTotals) {
  const SystemModel sys = generate_workload(testing::small_params(), 304);
  DesParams p;
  p.requests_per_server = 300;
  p.server_concurrency = 2;
  p.queue_cap = 4;
  p.overflow = OverflowPolicy::kRedirect;  // guarantees repository traffic
  auto groups = collect(sys, p, 11);
  ASSERT_EQ(groups.size(), 1u);

  // A lost arrival breaks per-station flow conservation.
  groups[0].stations[0].arrivals += 1;
  const InvariantsReport flow = audit_timeseries(groups);
  EXPECT_FALSE(flow.all_ok());
  const InvariantCheck* c = find_check(flow, "flow", 0);
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->ok);
  groups[0].stations[0].arrivals -= 1;

  // A skewed occupancy integral breaks Little's law at the repository.
  ASSERT_GT(groups[0].repository().occupancy_area_s, 0.0);
  groups[0].repository().occupancy_area_s *= 1.5;
  const InvariantsReport little = audit_timeseries(groups);
  const InvariantCheck* l = find_check(little, "little", kRepositoryStation);
  ASSERT_NE(l, nullptr);
  EXPECT_FALSE(l->ok);
  EXPECT_GT(little.violations, 0u);

  // A fabricated backwards-time count trips monotone_time.
  groups[0].repository().occupancy_area_s /= 1.5;
  groups[0].stations[1].time_violations = 3;
  const InvariantsReport backwards = audit_timeseries(groups);
  const InvariantCheck* m = find_check(backwards, "monotone_time", 1);
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(m->ok);
}

// ---------------------------------------------------------------------------
// mmr-invariants artifact

TEST_F(InvariantsTest, ArtifactRoundTrip) {
  const SystemModel sys = generate_workload(testing::small_params(), 305);
  DesParams p;
  p.requests_per_server = 300;
  const auto groups = collect(sys, p, 13);
  const InvariantTolerances tol;
  const InvariantsReport report = audit_timeseries(groups, tol);

  std::ostringstream os;
  write_invariants_jsonl(os, report, tol, RunMeta{});
  const InvariantsDoc doc = parse_invariants_jsonl(os.str());
  EXPECT_EQ(doc.schema, "mmr-invariants");
  EXPECT_EQ(doc.version, 1);
  EXPECT_EQ(doc.events.size(), report.checks.size());
  EXPECT_EQ(doc.declared_events, report.checks.size());
  EXPECT_EQ(doc.declared_violations, 0u);
  EXPECT_TRUE(doc.declared_ok);
}

TEST_F(InvariantsTest, ViolationsSurviveTheRoundTrip) {
  const SystemModel sys = generate_workload(testing::small_params(), 306);
  DesParams p;
  p.requests_per_server = 300;
  auto groups = collect(sys, p, 17);
  ASSERT_EQ(groups.size(), 1u);
  groups[0].stations[0].arrivals += 1;  // exactly one violated law
  const InvariantTolerances tol;
  const InvariantsReport report = audit_timeseries(groups, tol);
  ASSERT_EQ(report.violations, 1u);

  std::ostringstream os;
  write_invariants_jsonl(os, report, tol, RunMeta{});
  const std::string text = os.str();
  const InvariantsDoc doc = parse_invariants_jsonl(text);
  EXPECT_EQ(doc.declared_violations, 1u);
  EXPECT_FALSE(doc.declared_ok);

  // The parser recomputes each verdict and the summary tally; a tampered
  // violation count cannot sneak through.
  EXPECT_THROW(
      parse_invariants_jsonl(replace_once(text, "\"violations\":1",
                                          "\"violations\":2")),
      CheckError);
  EXPECT_THROW(parse_invariants_jsonl(replace_once(
                   text, "\"schema\":\"mmr-invariants\"",
                   "\"schema\":\"mmr-bogus\"")),
               CheckError);
  const std::size_t cut = text.find("{\"type\":\"summary\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_THROW(parse_invariants_jsonl(text.substr(0, cut)), CheckError);
  EXPECT_THROW(parse_invariants_jsonl(""), CheckError);
  // Envelope rules: version 1 only, non-negative integer counts.
  EXPECT_THROW(parse_invariants_jsonl(
                   replace_once(text, "\"version\":1", "\"version\":1.5")),
               CheckError);
  EXPECT_THROW(parse_invariants_jsonl(replace_once(
                   text, "\"violations\":1", "\"violations\":-1")),
               CheckError);
}

TEST_F(InvariantsTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_invariants_file("/no/such/mmr_invariants.jsonl"),
               CheckError);
  EXPECT_THROW(read_timeseries_file("/no/such/mmr_timeseries.jsonl"),
               CheckError);
}

}  // namespace
}  // namespace mmr
