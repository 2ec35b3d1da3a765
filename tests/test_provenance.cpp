#include "io/provenance.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/policy.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/metrics.h"

namespace mmr {
namespace {

/// Every test must leave the process-wide recorders exactly as it found
/// them: the recording scope restores the mask and empties the logs; caps
/// and sampling go back to their defaults.
class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    set_flight_sample_every(100);
    global_audit_log().set_max_events(1'000'000);
    global_flight_log().set_max_records(1'000'000);
  }

  const testing::RecordingScope scope_;
};

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.workload = testing::small_params();
  cfg.sim.requests_per_server = 300;
  cfg.runs = 2;
  cfg.base_seed = 7;
  return cfg;
}

TEST_F(ProvenanceTest, RunScopeNestsAndRestores) {
  EXPECT_EQ(current_provenance_run(), kProvenanceNoRun);
  EXPECT_EQ(provenance_run_or_zero(), 0u);
  {
    ProvenanceRunScope outer(42);
    EXPECT_EQ(current_provenance_run(), 42u);
    EXPECT_EQ(provenance_run_or_zero(), 42u);
    {
      ProvenanceRunScope inner(7);
      EXPECT_EQ(current_provenance_run(), 7u);
    }
    EXPECT_EQ(current_provenance_run(), 42u);
  }
  EXPECT_EQ(current_provenance_run(), kProvenanceNoRun);
}

TEST_F(ProvenanceTest, SampleEveryClampsToOne) {
  set_flight_sample_every(0);
  EXPECT_EQ(flight_sample_every(), 1u);
  set_flight_sample_every(25);
  EXPECT_EQ(flight_sample_every(), 25u);
}

TEST_F(ProvenanceTest, AuditArtifactRoundTrips) {
  std::vector<EvictionEvent> evictions(1);
  evictions[0].run = 1;
  evictions[0].policy = "ours";
  evictions[0].server = 0;
  evictions[0].object = 9;
  evictions[0].bytes = 40;
  evictions[0].storage_before = 140;
  evictions[0].storage_after = 100;
  global_audit_log().add_evictions(std::move(evictions));

  std::vector<UnmarkEvent> unmarks(1);
  unmarks[0].run = 1;
  unmarks[0].policy = "ours";
  unmarks[0].server = 0;
  unmarks[0].page = 3;
  unmarks[0].object = 9;
  unmarks[0].compulsory = true;
  global_audit_log().add_unmarks(std::move(unmarks));

  std::vector<HeadroomStamp> headroom(2);
  headroom[0].run = 1;
  headroom[0].policy = "ours";
  headroom[0].phase = 0;
  headroom[0].server = 0;
  headroom[0].proc_load = 10;
  headroom[0].proc_capacity = 25;
  headroom[0].storage_used = 100;
  headroom[0].storage_capacity = 150;
  headroom[1] = headroom[0];
  headroom[1].server = kInvalidId;  // repository row
  headroom[1].proc_capacity = kUnlimited;
  global_audit_log().add_headroom(std::move(headroom));

  RunMeta meta;
  meta.tool = "test";
  meta.add("seed", std::uint64_t{11});
  std::ostringstream os;
  write_audit_jsonl(os, global_audit_log().snapshot(), meta);

  const ProvenanceDoc doc = parse_provenance_jsonl(os.str());
  EXPECT_EQ(doc.schema, "mmr-audit");
  EXPECT_EQ(doc.version, 1);
  EXPECT_TRUE(doc.has_summary);
  EXPECT_EQ(doc.declared_dropped, 0u);
  ASSERT_EQ(doc.events.size(), 4u);
  EXPECT_EQ(doc.header.at("run_meta").at("tool").str_v, "test");
  EXPECT_EQ(doc.header.at("run_meta").at("seed").num_v, 11);

  EXPECT_EQ(doc.events[0].at("type").str_v, "evict");
  EXPECT_EQ(doc.events[0].at("policy").str_v, "ours");
  EXPECT_EQ(doc.events[0].at("bytes").num_v, 40);
  EXPECT_EQ(doc.events[0].at("storage_after").num_v, 100);
  EXPECT_EQ(doc.events[1].at("type").str_v, "unmark");
  EXPECT_EQ(doc.events[1].at("page").num_v, 3);
  EXPECT_TRUE(doc.events[1].at("compulsory").bool_v);

  // Server headroom row carries storage fields; the repository row (server
  // -1) does not, and its unlimited proc capacity serializes as null.
  EXPECT_EQ(doc.events[2].at("type").str_v, "headroom");
  EXPECT_EQ(doc.events[2].at("server").num_v, 0);
  EXPECT_EQ(doc.events[2].at("storage_headroom").num_v, 50);
  EXPECT_EQ(doc.events[2].at("proc_headroom").num_v, 15);
  EXPECT_EQ(doc.events[3].at("server").num_v, -1);
  EXPECT_TRUE(doc.events[3].at("proc_capacity").is_null());
  EXPECT_TRUE(doc.events[3].at("proc_headroom").is_null());
  EXPECT_FALSE(doc.events[3].has("storage_used"));
}

TEST_F(ProvenanceTest, FlightArtifactRoundTrips) {
  set_flight_sample_every(10);
  std::vector<FlightRecord> records(1);
  records[0].run = 2;
  records[0].policy = "lru";
  records[0].mode = FlightMode::kLru;
  records[0].server = 1;
  records[0].page = 5;
  records[0].index = 20;
  records[0].t_local = 1.5;
  records[0].t_remote = 3.0;
  records[0].response = 3.0;
  records[0].remote_bound = true;
  records[0].cache_hits = 2;
  records[0].cache_misses = 1;
  global_flight_log().add(std::move(records));

  RunMeta meta;
  meta.tool = "test";
  std::ostringstream os;
  write_flight_jsonl(os, global_flight_log().snapshot(),
                     global_flight_log().dropped(), meta);

  const ProvenanceDoc doc = parse_provenance_jsonl(os.str());
  EXPECT_EQ(doc.schema, "mmr-flight");
  EXPECT_EQ(doc.header.at("sample_every").num_v, 10);
  ASSERT_EQ(doc.events.size(), 1u);
  const JsonValue& e = doc.events[0];
  EXPECT_EQ(e.at("type").str_v, "request");
  EXPECT_EQ(e.at("mode").str_v, "lru");
  EXPECT_EQ(e.at("bound").str_v, "remote");
  EXPECT_EQ(e.at("cache_hits").num_v, 2);
  EXPECT_EQ(e.at("response").num_v, 3.0);
}

TEST_F(ProvenanceTest, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(parse_provenance_jsonl(""), CheckError);
  EXPECT_THROW(parse_provenance_jsonl("{\"schema\":\"bogus\",\"version\":1}"),
               CheckError);
  // Summary count disagreeing with the lines present.
  EXPECT_THROW(parse_provenance_jsonl(
                   "{\"schema\":\"mmr-flight\",\"version\":1}\n"
                   "{\"type\":\"summary\",\"events\":3,\"dropped\":0}\n"),
               CheckError);
  // Event after the summary line.
  EXPECT_THROW(parse_provenance_jsonl(
                   "{\"schema\":\"mmr-flight\",\"version\":1}\n"
                   "{\"type\":\"summary\",\"events\":0,\"dropped\":0}\n"
                   "{\"type\":\"request\"}\n"),
               CheckError);
  // A version other than 1, and a document with no summary line.
  EXPECT_THROW(parse_provenance_jsonl(
                   "{\"schema\":\"mmr-audit\",\"version\":7}\n"
                   "{\"type\":\"partition\"}\n"),
               CheckError);
  EXPECT_THROW(parse_provenance_jsonl(
                   "{\"schema\":\"mmr-audit\",\"version\":7}\n"
                   "{\"type\":\"partition\"}\n"
                   "{\"type\":\"summary\",\"events\":1,\"dropped\":0}\n"),
               CheckError);
  EXPECT_THROW(parse_provenance_jsonl(
                   "{\"schema\":\"mmr-audit\",\"version\":1}\n"
                   "{\"type\":\"partition\"}\n"),
               CheckError);
  // Summary counts must be integers in [0, 2^53].
  for (const char* count : {"-1", "1e300", "0.5", "\"0\""}) {
    EXPECT_THROW(parse_provenance_jsonl(
                     std::string("{\"schema\":\"mmr-flight\",\"version\":1}\n"
                                 "{\"type\":\"summary\",\"events\":0,"
                                 "\"dropped\":") +
                     count + "}\n"),
                 CheckError)
        << count;
    EXPECT_THROW(parse_provenance_jsonl(
                     std::string("{\"schema\":\"mmr-flight\",\"version\":1}\n"
                                 "{\"type\":\"summary\",\"events\":") +
                     count + ",\"dropped\":0}\n"),
                 CheckError)
        << count;
  }
}

TEST_F(ProvenanceTest, CapCountsDroppedInsteadOfSilentLoss) {
  global_audit_log().set_max_events(3);
  std::vector<EvictionEvent> batch(5);
  global_audit_log().add_evictions(std::move(batch));
  EXPECT_EQ(global_audit_log().size(), 3u);
  EXPECT_EQ(global_audit_log().dropped(), 2u);

  global_flight_log().set_max_records(2);
  std::vector<FlightRecord> records(4);
  global_flight_log().add(std::move(records));
  EXPECT_EQ(global_flight_log().size(), 2u);
  EXPECT_EQ(global_flight_log().dropped(), 2u);

  // The summary line carries the dropped count through the round trip.
  std::ostringstream os;
  write_flight_jsonl(os, global_flight_log().snapshot(),
                     global_flight_log().dropped(), RunMeta{});
  EXPECT_EQ(parse_provenance_jsonl(os.str()).declared_dropped, 2u);
}

// The cap keeps the first events of the artifact in canonical order, so
// the artifact does not depend on which worker's batch arrived first.
TEST_F(ProvenanceTest, CapKeepsTheCanonicalPrefixInAnyArrivalOrder) {
  auto render = [](const std::vector<std::uint64_t>& runs) {
    global_audit_log().clear();
    global_audit_log().set_max_events(3);
    for (const std::uint64_t run : runs) {
      std::vector<EvictionEvent> eviction(1);
      eviction[0].run = run;
      global_audit_log().add_evictions(std::move(eviction));
      std::vector<UnmarkEvent> unmark(1);
      unmark[0].run = run;
      global_audit_log().add_unmarks(std::move(unmark));
    }
    EXPECT_EQ(global_audit_log().size(), 3u);
    EXPECT_EQ(global_audit_log().dropped(), 2 * runs.size() - 3);
    std::ostringstream os;
    write_audit_jsonl(os, global_audit_log().snapshot(), RunMeta{});
    return os.str();
  };
  const std::string sorted = render({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(render({8, 3, 6, 1, 7, 2, 5, 4}), sorted);
  EXPECT_EQ(render({5, 8, 7, 6, 4, 3, 2, 1}), sorted);
  const AuditSnapshot snap = global_audit_log().snapshot();
  ASSERT_EQ(snap.evictions.size(), 3u);
  EXPECT_EQ(snap.evictions[2].run, 3u);
  EXPECT_TRUE(snap.unmarks.empty());
  EXPECT_EQ(snap.dropped, 13u);

  global_flight_log().set_max_records(2);
  for (const std::uint32_t index : {9u, 4u, 7u, 1u, 8u}) {
    std::vector<FlightRecord> record(1);
    record[0].index = index;
    global_flight_log().add(std::move(record));
  }
  const std::vector<FlightRecord> kept = global_flight_log().snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].index, 1u);
  EXPECT_EQ(kept[1].index, 4u);
  EXPECT_EQ(global_flight_log().dropped(), 3u);
}

TEST_F(ProvenanceTest, PolicyRunRecordsAuditTrail) {
  const testing::RecordingScope audit(kRecAudit);
  // Half the storage forces evictions; the solver records every decision.
  const SystemModel sys =
      testing::two_server_system(1000.0, 60 * testing::kKB);
  PolicyOptions options;
  ProvenanceRunScope run(99);
  MetricLabelScope label("ours");
  run_replication_policy(sys, options);

  const AuditSnapshot snap = global_audit_log().snapshot();
  ASSERT_GT(snap.evictions.size(), 0u);
  ASSERT_GT(snap.headroom.size(), 0u);
  EXPECT_GT(snap.replicas.size(), 0u);
  for (const EvictionEvent& e : snap.evictions) {
    EXPECT_EQ(e.run, 99u);
    EXPECT_EQ(e.policy, "ours");
  }
  // Headroom is stamped for both servers plus the repository, per phase.
  bool saw_repo = false;
  for (const HeadroomStamp& h : snap.headroom) {
    EXPECT_EQ(h.run, 99u);
    EXPECT_EQ(h.policy, "ours");
    EXPECT_LT(h.phase, kAuditPhaseCount);
    if (h.server == kInvalidId) saw_repo = true;
  }
  EXPECT_TRUE(saw_repo);
  // Every eviction frees bytes and lands within the server's pass sequence.
  for (const EvictionEvent& e : snap.evictions) {
    EXPECT_GT(e.bytes, 0u);
    EXPECT_LE(e.storage_after, e.storage_before);
  }
}

TEST_F(ProvenanceTest, AuditRecordingIsBitExact) {
  const SystemModel sys =
      testing::two_server_system(1000.0, 60 * testing::kKB);
  PolicyOptions options;
  const PolicyResult off = run_replication_policy(sys, options);

  const testing::RecordingScope audit(kRecAudit);
  const PolicyResult on = run_replication_policy(sys, options);

  EXPECT_EQ(off.assignment.comp_bits(), on.assignment.comp_bits());
  EXPECT_EQ(off.assignment.opt_bits(), on.assignment.opt_bits());
  EXPECT_DOUBLE_EQ(off.d_after_offload, on.d_after_offload);
}

TEST_F(ProvenanceTest, FlightSamplerIsDeterministic) {
  const testing::RecordingScope flight(kRecFlight);
  set_flight_sample_every(7);
  const SystemModel sys = testing::two_server_system();
  Assignment asg(sys);
  asg.recompute_caches();
  SimParams params;
  params.requests_per_server = 100;
  const Simulator sim(sys, params);
  sim.simulate(asg, 5);

  const std::vector<FlightRecord> records = global_flight_log().snapshot();
  // ceil(100 / 7) = 15 samples per server, indices 0, 7, 14, ...
  ASSERT_EQ(records.size(), 2u * 15u);
  for (const FlightRecord& r : records) {
    EXPECT_EQ(r.index % 7, 0u);
    EXPECT_EQ(r.mode, FlightMode::kStatic);
    EXPECT_DOUBLE_EQ(r.response, std::max(r.t_local, r.t_remote));
    EXPECT_EQ(r.remote_bound, r.t_remote > r.t_local);
  }

  // Same seed, same stream: a second simulation appends identical records.
  global_flight_log().clear();
  sim.simulate(asg, 5);
  const std::vector<FlightRecord> again = global_flight_log().snapshot();
  ASSERT_EQ(again.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(again[i].page, records[i].page);
    EXPECT_DOUBLE_EQ(again[i].response, records[i].response);
  }
}

TEST_F(ProvenanceTest, CacheBaselinesRecordFlight) {
  const testing::RecordingScope flight(kRecFlight);
  set_flight_sample_every(11);
  const SystemModel sys = testing::two_server_system();
  SimParams params;
  params.requests_per_server = 60;
  const Simulator sim(sys, params);
  sim.simulate_lru(5);
  sim.simulate_threshold(5, ThresholdParams{});

  bool saw_lru = false;
  bool saw_threshold = false;
  for (const FlightRecord& r : global_flight_log().snapshot()) {
    EXPECT_EQ(r.index % 11, 0u);
    if (r.mode == FlightMode::kLru) saw_lru = true;
    if (r.mode == FlightMode::kThreshold) saw_threshold = true;
    // Every compulsory object is either a hit or a miss.
    EXPECT_GT(r.cache_hits + r.cache_misses, 0u);
  }
  EXPECT_TRUE(saw_lru);
  EXPECT_TRUE(saw_threshold);
}

TEST_F(ProvenanceTest, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  RunMeta meta;
  meta.tool = "test";

  auto render = [&](ThreadPool* pool) {
    const testing::RecordingScope recorders(kRecAudit | kRecFlight);
    set_flight_sample_every(40);
    set_next_provenance_scenario(1);
    run_scenario(cfg, spec, pool);
    std::ostringstream audit_os;
    write_audit_jsonl(audit_os, global_audit_log().snapshot(), meta);
    std::ostringstream flight_os;
    write_flight_jsonl(flight_os, global_flight_log().snapshot(),
                       global_flight_log().dropped(), meta);
    return std::make_pair(audit_os.str(), flight_os.str());
  };

  const auto serial = render(nullptr);
  ThreadPool pool(3);
  const auto parallel = render(&pool);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_GT(serial.first.size(), 1000u);   // events actually recorded
  EXPECT_GT(serial.second.size(), 1000u);
}

TEST_F(ProvenanceTest, RunSingleTagsEventsWithSeed) {
  const testing::RecordingScope audit(kRecAudit);
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;  // binding storage, so evictions are recorded
  run_single(cfg, spec, 31);
  const AuditSnapshot snap = global_audit_log().snapshot();
  ASSERT_GT(snap.evictions.size(), 0u);
  ASSERT_GT(snap.headroom.size(), 0u);
  for (const EvictionEvent& e : snap.evictions) EXPECT_EQ(e.run, 31u);
  for (const HeadroomStamp& h : snap.headroom) EXPECT_EQ(h.run, 31u);
}

}  // namespace
}  // namespace mmr
