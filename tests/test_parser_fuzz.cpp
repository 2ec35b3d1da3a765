// Artifact bytes and parser robustness.
//
// ArtifactGolden pins the payload of the five deterministic JSONL artifacts
// of one fixed seeded run: every line after the header, plus the header with
// its run_meta removed (run_meta carries the build's git describe). A change
// to a writer or to the envelope must leave these hashes unchanged.
//
// ParserFuzz feeds deterministic mutants of every JSONL artifact, a BENCH
// json, the system / assignment text formats and a command line (Flags and
// its typed getters) to their strict parsers.
// Each mutant must either parse or throw CheckError: any other exception
// fails the test, and a crash or sanitizer report fails the process.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/static_policies.h"
#include "io/artifacts.h"
#include "io/benchfmt.h"
#include "io/provenance.h"
#include "io/serialize.h"
#include "obs/invariants.h"
#include "obs/obs.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "sim/des.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/metrics.h"
#include "workload/generator.h"

namespace mmr {
namespace {

/// A workload small enough that every artifact stays a few tens of KB.
WorkloadParams tiny_params() {
  WorkloadParams p;
  p.num_servers = 2;
  p.min_pages_per_server = 6;
  p.max_pages_per_server = 8;
  p.num_objects = 60;
  p.min_objects_per_server = 20;
  p.max_objects_per_server = 30;
  p.min_compulsory_per_page = 2;
  p.max_compulsory_per_page = 4;
  p.min_optional_per_page = 1;
  p.max_optional_per_page = 3;
  p.server_proc_capacity = kUnlimited;
  p.page_requests_per_sec_per_server = 5.0;
  return p;
}

/// Recorder configs back to their defaults; a RecordingScope owns the mask
/// and the logs.
void reset_configs() {
  set_flight_sample_every(100);
  set_obs_config(ObsConfig{});
  set_timeseries_config(TimeseriesConfig{});
  set_next_provenance_scenario(0);
}

struct Seeds {
  std::string audit, flight, sketch, timeseries, invariants;  // deterministic
  std::string timeline, bench, system, assignment;
};

/// One fixed seeded run with every recorder on: a constrained solve and
/// simulation through run_scenario, then one DES pass.
Seeds make_seeds() {
  reset_configs();
  const testing::RecordingScope scope(kRecAudit | kRecFlight | kRecObs |
                                      kRecTimeseries);
  set_flight_sample_every(5);
  TimeseriesConfig tcfg;
  tcfg.window_s = 30.0;
  set_timeseries_config(tcfg);

  ExperimentConfig cfg;
  cfg.workload = tiny_params();
  cfg.sim.requests_per_server = 100;
  cfg.runs = 1;
  cfg.base_seed = 7;
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  spec.local_proc_fraction = 0.6;
  spec.repo_capacity_fraction = 0.5;
  run_scenario(cfg, spec, nullptr);

  const SystemModel sys = generate_workload(tiny_params(), 11);
  DesParams dp;
  dp.requests_per_server = 100;
  const Assignment asg = make_local_assignment(sys);
  (void)DesSimulator(sys, dp).simulate(asg, 13);

  RunMeta meta;
  meta.tool = "golden";
  meta.add("seed", std::uint64_t{7});
  Seeds s;
  std::ostringstream audit, flight, sketch, ts, inv, timeline, bench, text,
      placement;
  write_audit_jsonl(audit, global_audit_log().snapshot(), meta);
  write_flight_jsonl(flight, global_flight_log().snapshot(),
                     global_flight_log().dropped(), meta);
  write_sketch_jsonl(sketch, global_obs_log().snapshot(), obs_config(),
                     global_obs_log().dropped(), meta);
  const std::vector<TimeseriesShard> groups =
      global_timeseries_log().snapshot();
  write_timeseries_jsonl(ts, groups, timeseries_config(),
                         global_timeseries_log().dropped(), meta);
  write_invariants_jsonl(inv, audit_timeseries(groups), InvariantTolerances{},
                         meta);
  reset_configs();

  TimelineSnapshot snap;
  snap.interval_ms = 20;
  for (std::uint64_t t = 0; t < 3; ++t) {
    TimelineSample sample;
    sample.t_ms = 20 * t;
    sample.rss_bytes = 1000 + t;
    sample.peak_rss_bytes = 2000 + t;
    sample.metric_deltas["sim.requests"] = 10 * t;
    snap.samples.push_back(sample);
  }
  write_timeline_jsonl(timeline, snap, 1, meta);

  BenchCollector collector;
  collector.record("harness.wall_s", "s", 1.5);
  collector.record("harness.wall_s", "s", 1.25);
  collector.record("sim.requests_per_sec", "1/s", 3e5, "higher");
  write_bench_json(bench, collector.build("golden", meta, 1));

  save_system(sys, text);
  save_assignment(asg, placement);
  s.audit = audit.str();
  s.flight = flight.str();
  s.sketch = sketch.str();
  s.timeseries = ts.str();
  s.invariants = inv.str();
  s.timeline = timeline.str();
  s.bench = bench.str();
  s.system = text.str();
  s.assignment = placement.str();
  return s;
}

const Seeds& seeds() {
  static const Seeds s = make_seeds();
  return s;
}

// ---------------------------------------------------------------------------
// Golden payload hashes.

/// The artifact without the header's run_meta member (always its last).
std::string payload(const std::string& text) {
  const std::size_t header_end = text.find('\n');
  const std::size_t meta = text.rfind(",\"run_meta\":", header_end);
  EXPECT_NE(meta, std::string::npos);
  return text.substr(0, meta) + text.substr(header_end);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Recorded before the writers moved onto the shared JSONL envelope codec.
// The audit hash was re-recorded when the audit stopped carrying per-step
// PARTITION events; the other four are the original recordings.
TEST(ArtifactGolden, PayloadHashes) {
  const Seeds& s = seeds();
  EXPECT_EQ(fnv1a(payload(s.audit)), 0xb152b0241f55d3d7u);
  EXPECT_EQ(fnv1a(payload(s.flight)), 0x1277768684361685u);
  EXPECT_EQ(fnv1a(payload(s.sketch)), 0xa48007ab7110d18bu);
  EXPECT_EQ(fnv1a(payload(s.timeseries)), 0x733be0e639b46eb7u);
  EXPECT_EQ(fnv1a(payload(s.invariants)), 0x114459b8be3797afu);
}

// simulate_threshold is the one simulate path the run above never takes.
// Recorded before the four simulate paths shared one request recorder.
TEST(ArtifactGolden, ThresholdPayloadHashes) {
  reset_configs();
  const testing::RecordingScope scope(kRecFlight | kRecObs);
  set_flight_sample_every(5);
  const SystemModel sys = generate_workload(tiny_params(), 11);
  SimParams sp;
  sp.requests_per_server = 200;
  {
    ProvenanceRunScope run(3);
    MetricLabelScope label("threshold");
    (void)Simulator(sys, sp).simulate_threshold(17, ThresholdParams{});
  }
  EXPECT_EQ(global_flight_log().size(), 80u);
  RunMeta meta;
  meta.tool = "golden";
  std::ostringstream flight, sketch;
  write_flight_jsonl(flight, global_flight_log().snapshot(),
                     global_flight_log().dropped(), meta);
  write_sketch_jsonl(sketch, global_obs_log().snapshot(), obs_config(),
                     global_obs_log().dropped(), meta);
  reset_configs();
  EXPECT_EQ(fnv1a(payload(flight.str())), 0xc1cd308d0163f396u);
  EXPECT_EQ(fnv1a(payload(sketch.str())), 0xd99d098908297cb1u);
}

// ---------------------------------------------------------------------------
// Seeded mutation.

/// Deterministic mutants of `seed`: kPerKind of each kind, from a fixed
/// generator, so a failure reproduces exactly.
std::vector<std::string> mutants(const std::string& seed) {
  constexpr int kPerKind = 40;
  std::mt19937_64 rng(0x5eed);
  auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::size_t> line_starts{0};
  for (std::size_t i = 0; i + 1 < seed.size(); ++i) {
    if (seed[i] == '\n') line_starts.push_back(i + 1);
  }
  auto line_at = [&](std::size_t k) {
    const std::size_t begin = line_starts[k];
    const std::size_t end = k + 1 < line_starts.size() ? line_starts[k + 1]
                                                       : seed.size();
    return std::pair<std::size_t, std::size_t>(begin, end - begin);
  };
  std::vector<std::size_t> digits;
  for (std::size_t i = 0; i < seed.size(); ++i) {
    if (seed[i] >= '0' && seed[i] <= '9') digits.push_back(i);
  }
  std::vector<std::string> out;
  for (int i = 0; i < kPerKind; ++i) {
    std::string m = seed;  // byte flip
    m[below(m.size())] ^= static_cast<char>(1 + below(255));
    out.push_back(std::move(m));

    out.push_back(seed.substr(0, below(seed.size())));  // truncation

    const auto [drop_at, drop_len] = line_at(below(line_starts.size()));
    out.push_back(seed.substr(0, drop_at) +  // dropped line
                  seed.substr(drop_at + drop_len));

    const auto [dup_at, dup_len] = line_at(below(line_starts.size()));
    out.push_back(seed.substr(0, dup_at) +  // duplicated line
                  seed.substr(dup_at, dup_len) + seed.substr(dup_at));

    if (!digits.empty()) {  // a digit turned into '-'
      m = seed;
      m[digits[below(digits.size())]] = '-';
      out.push_back(std::move(m));
    }

    m = seed;  // nesting
    m.insert(below(m.size() + 1), "[[[[");
    out.push_back(std::move(m));
  }
  return out;
}

/// Runs `parse` on every mutant of `seed`: each must parse or throw
/// CheckError. The unmutated seed must parse.
void fuzz(const char* name, const std::string& seed,
          const std::function<void(const std::string&)>& parse) {
  ASSERT_NO_THROW(parse(seed)) << name << " seed does not parse";
  std::size_t rejected = 0;
  std::size_t index = 0;
  for (const std::string& m : mutants(seed)) {
    try {
      parse(m);
    } catch (const CheckError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " mutant " << index
                    << " threw a non-CheckError: " << e.what();
    }
    ++index;
  }
  EXPECT_GT(rejected, 0u) << name << ": no mutant was rejected";
}

TEST(ParserFuzz, JsonlArtifacts) {
  const Seeds& s = seeds();
  fuzz("mmr-audit", s.audit,
       [](const std::string& t) { parse_provenance_jsonl(t); });
  fuzz("mmr-flight", s.flight,
       [](const std::string& t) { parse_provenance_jsonl(t); });
  fuzz("mmr-sketch", s.sketch,
       [](const std::string& t) { parse_sketch_jsonl(t); });
  fuzz("mmr-timeseries", s.timeseries,
       [](const std::string& t) { parse_timeseries_jsonl(t); });
  fuzz("mmr-invariants", s.invariants,
       [](const std::string& t) { parse_invariants_jsonl(t); });
  fuzz("mmr-timeline", s.timeline,
       [](const std::string& t) { parse_timeline_jsonl(t); });
}

TEST(ParserFuzz, BenchJson) {
  fuzz("BENCH json", seeds().bench,
       [](const std::string& t) { parse_bench_json(t); });
}

TEST(ParserFuzz, SystemAndAssignmentText) {
  const Seeds& s = seeds();
  fuzz("mmrepl-system", s.system, [](const std::string& t) {
    std::istringstream is(t);
    load_system(is);
  });
  std::istringstream sys_text(s.system);
  const SystemModel sys = load_system(sys_text);
  fuzz("mmrepl-assignment", s.assignment, [&](const std::string& t) {
    std::istringstream is(t);
    load_assignment(sys, is);
  });
}

TEST(ParserFuzz, CommandLineFlags) {
  // One argument per line, so dropped and duplicated lines are dropped and
  // repeated flags. Every typed getter runs on every mutant.
  const std::string seed =
      "prog\n--runs=20\n--requests\n2000\n--threads=4\n--seed=-42\n"
      "--frac=0.65\n--quick\n--mem-budget=4096\n--name=x\ninput.txt\n";
  fuzz("command line", seed, [](const std::string& t) {
    std::vector<std::string> args;
    std::istringstream is(t);
    for (std::string line; std::getline(is, line);) args.push_back(line);
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    const Flags f = Flags::parse(static_cast<int>(argv.size()), argv.data());
    f.get_count("runs", 5, 1u << 20);
    f.get_count("requests", 10, 1u << 20);
    f.get_count("threads", 0, 1024);
    f.get_count("mem-budget", 0, INT64_MAX);
    f.get_int("seed", 1);
    f.get_double("frac", 0.5);
    f.get_bool("quick", false);
    f.get_string("name", "");
    f.get_string_list("runs");
  });
}

// ---------------------------------------------------------------------------
// JSON limits every parser inherits.

TEST(JsonParse, BoundsNestingDepth) {
  const std::size_t n = kJsonMaxDepth;
  EXPECT_NO_THROW(json_parse(std::string(n, '[') + std::string(n, ']')));
  EXPECT_THROW(json_parse(std::string(n + 1, '[') + std::string(n + 1, ']')),
               CheckError);
  // Far past the bound: a clean error, not a stack overflow.
  EXPECT_THROW(json_parse(std::string(2'000'000, '[')), CheckError);
  EXPECT_THROW(json_parse("{\"a\":" + std::string(100'000, '{')),
               CheckError);
}

TEST(JsonParse, RejectsNumbersOutsideTheDoubleRange) {
  EXPECT_THROW(json_parse("1e999"), CheckError);
  EXPECT_THROW(json_parse("[-1e400]"), CheckError);
  EXPECT_EQ(json_parse("1e-400").num_v, 0.0);  // underflow rounds to zero
}

TEST(JsonParse, CountsAreIntegersUpToTwoToThe53) {
  EXPECT_EQ(json_count(json_parse("9007199254740992"), "n"),
            9007199254740992u);
  EXPECT_EQ(json_count(json_parse("0"), "n"), 0u);
  EXPECT_THROW(json_count(json_parse("-1"), "n"), CheckError);
  EXPECT_THROW(json_count(json_parse("1e300"), "n"), CheckError);
  EXPECT_THROW(json_count(json_parse("9007199254740994"), "n"), CheckError);
  EXPECT_THROW(json_count(json_parse("1.5"), "n"), CheckError);
  EXPECT_THROW(json_count(json_parse("\"7\""), "n"), CheckError);
}

}  // namespace
}  // namespace mmr
