#include "sim/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "io/provenance.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace mmr {
namespace {

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.workload = testing::small_params();
  cfg.sim.requests_per_server = 400;
  cfg.runs = 3;
  cfg.base_seed = 7;
  return cfg;
}

TEST(Runner, SingleRunProducesSaneOrdering) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;  // unconstrained scenario
  const RunOutcome out = run_single(cfg, spec, 11);
  EXPECT_GT(out.unconstrained_response, 0);
  // With no constraints, ours == unconstrained placement quality-wise.
  EXPECT_NEAR(out.ours_response, out.unconstrained_response,
              0.05 * out.unconstrained_response);
  // The repo link is ~10x slower: Remote must be clearly the worst.
  EXPECT_GT(out.remote_response, out.local_response);
  EXPECT_GT(out.remote_response, out.ours_response);
  EXPECT_TRUE(out.ours_feasible);
}

TEST(Runner, DeterministicInSeed) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  const RunOutcome a = run_single(cfg, spec, 13);
  const RunOutcome b = run_single(cfg, spec, 13);
  EXPECT_DOUBLE_EQ(a.ours_response, b.ours_response);
  EXPECT_DOUBLE_EQ(a.lru_response, b.lru_response);
  EXPECT_DOUBLE_EQ(a.unconstrained_response, b.unconstrained_response);
}

TEST(Runner, ScenarioAggregatesRuns) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.6;
  const ScenarioResult r = run_scenario(cfg, spec, nullptr);
  EXPECT_EQ(r.runs, cfg.runs);
  EXPECT_EQ(r.ours.rel_increase.count(), cfg.runs);
  EXPECT_EQ(r.lru.rel_increase.count(), cfg.runs);
  EXPECT_EQ(r.remote.rel_increase.count(), cfg.runs);
  // Relative increases vs the same-run unconstrained baseline: ours at 60%
  // storage must be >= 0 on average, remote hugely positive.
  EXPECT_GE(r.ours.rel_increase.mean(), -0.05);
  EXPECT_GT(r.remote.rel_increase.mean(), 1.0);
}

TEST(Runner, PoolAndSerialAgree) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  spec.run_lru = false;  // save time; determinism is the point
  const ScenarioResult serial = run_scenario(cfg, spec, nullptr);
  ThreadPool pool(3);
  const ScenarioResult parallel = run_scenario(cfg, spec, &pool);
  EXPECT_DOUBLE_EQ(serial.ours.rel_increase.mean(),
                   parallel.ours.rel_increase.mean());
  EXPECT_DOUBLE_EQ(serial.unconstrained_response.mean(),
                   parallel.unconstrained_response.mean());
}

TEST(Runner, OptionalBaselinesCanBeSkipped) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.run_lru = false;
  spec.run_local = false;
  spec.run_remote = false;
  const ScenarioResult r = run_scenario(cfg, spec, nullptr);
  EXPECT_EQ(r.lru.rel_increase.count(), 0u);
  EXPECT_EQ(r.local.rel_increase.count(), 0u);
  EXPECT_EQ(r.remote.rel_increase.count(), 0u);
  EXPECT_EQ(r.ours.rel_increase.count(), cfg.runs);
}

TEST(Runner, ProcessingFractionCapsLoad) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.local_proc_fraction = 0.5;
  const RunOutcome constrained = run_single(cfg, spec, 17);
  ScenarioSpec free_spec;
  const RunOutcome free = run_single(cfg, free_spec, 17);
  // Halved replication headroom cannot make things better.
  EXPECT_GE(constrained.ours_response, free.ours_response - 1e-9);
}

TEST(Runner, ScenarioPopulatesMetrics) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.6;
  MetricsRegistry registry;
  ThreadPool pool(3);
  {
    MetricsScope scope(&registry);
    run_scenario(cfg, spec, &pool);
  }
  const MetricsSnapshot s = registry.snapshot();
  EXPECT_EQ(s.counters.at("runner.runs"), cfg.runs);
  // 4 simulated placements per run (unconstrained/ours/local/remote) plus
  // the LRU baseline, all on the same request stream.
  EXPECT_EQ(s.counters.at("sim.requests"),
            std::uint64_t{5} * cfg.runs * cfg.workload.num_servers *
                cfg.sim.requests_per_server);
  // Every simulated request is bound by exactly one pipeline.
  EXPECT_EQ(
      s.counters.at("sim.local_bound") + s.counters.at("sim.remote_bound"),
      s.counters.at("sim.requests"));
  EXPECT_EQ(s.gauges.at("runner.response.ours").count, 1u);
}

TEST(Runner, MetricsAreThreadCountInvariant) {
  // Runs finish in any order on a pool; their registries are folded in run
  // order, so even a gauge's `last` and the bits of its mean match.
  ExperimentConfig cfg = fast_config();
  cfg.runs = 8;
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  spec.run_lru = false;
  const auto metrics_with = [&](std::size_t threads) {
    MetricsRegistry registry;
    ThreadPool pool(threads);
    {
      MetricsScope scope(&registry);
      run_scenario(cfg, spec, &pool);
    }
    return registry.snapshot();
  };
  const MetricsSnapshot one = metrics_with(1);
  ASSERT_FALSE(one.gauges.empty());
  // Completion order varies from call to call; repeat to see several.
  for (int rep = 0; rep < 3; ++rep) {
    const MetricsSnapshot four = metrics_with(4);
    EXPECT_EQ(one.counters, four.counters);
    ASSERT_EQ(one.gauges.size(), four.gauges.size());
    for (const auto& [name, g] : one.gauges) {
      ASSERT_EQ(four.gauges.count(name), 1u) << name;
      const GaugeStat& h = four.gauges.at(name);
      EXPECT_EQ(g.count, h.count) << name;
      EXPECT_EQ(g.last, h.last) << name;
      EXPECT_EQ(g.mean, h.mean) << name;
      EXPECT_EQ(g.min, h.min) << name;
      EXPECT_EQ(g.max, h.max) << name;
    }
  }
}

TEST(Runner, TracedRunNestsSolverPhaseSpansInPolicySpans) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.6;
  std::vector<TraceEvent> events;
  {
    const testing::RecordingScope trace(kRecTrace);
    (void)run_single(cfg, spec, 11);
    events = Tracer::instance().snapshot();
  }

  std::vector<const TraceEvent*> policies;
  std::map<std::string, std::size_t> phases;
  for (const TraceEvent& e : events) {
    if (e.name == "policy") policies.push_back(&e);
  }
  // The unconstrained calibration solve and the scenario solve.
  ASSERT_EQ(policies.size(), 2u);
  const std::set<std::string> solver_phases = {
      "partition", "storage_restore", "processing_restore", "offload",
      "local_search"};
  for (const TraceEvent& e : events) {
    if (solver_phases.count(e.name) == 0) continue;
    ++phases[e.name];
    EXPECT_GT(e.dur_ns, 0u) << e.name;
    const bool nested = std::any_of(
        policies.begin(), policies.end(), [&](const TraceEvent* p) {
          return p->tid == e.tid && p->start_ns <= e.start_ns &&
                 e.start_ns + e.dur_ns <= p->start_ns + p->dur_ns;
        });
    EXPECT_TRUE(nested) << e.name << " span outside every policy span";
  }
  // PARTITION runs in both solves; the restorations and off-loading only
  // in the constrained one; local search never while refine is off.
  EXPECT_EQ(phases["partition"], 2u);
  EXPECT_EQ(phases["storage_restore"], 1u);
  EXPECT_EQ(phases["processing_restore"], 1u);
  EXPECT_EQ(phases["offload"], 1u);
  EXPECT_EQ(phases.count("local_search"), 0u);
}

TEST(Runner, MetricsCollectionDoesNotChangeResults) {
  // The determinism guard: instrumentation must never touch an RNG stream,
  // so results with metrics on and off are bit-identical.
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  MetricsRegistry scratch;
  RunOutcome with_metrics;
  {
    MetricsScope scope(&scratch);
    with_metrics = run_single(cfg, spec, 23);
  }
  EXPECT_FALSE(scratch.snapshot().empty());

  RunOutcome without_metrics;
  {
    const testing::RecordingScope scope;
    set_recording(recording_mask() & ~kRecMetrics);
    without_metrics = run_single(cfg, spec, 23);
  }

  EXPECT_DOUBLE_EQ(with_metrics.ours_response, without_metrics.ours_response);
  EXPECT_DOUBLE_EQ(with_metrics.lru_response, without_metrics.lru_response);
  EXPECT_DOUBLE_EQ(with_metrics.local_response,
                   without_metrics.local_response);
  EXPECT_DOUBLE_EQ(with_metrics.remote_response,
                   without_metrics.remote_response);
  EXPECT_DOUBLE_EQ(with_metrics.unconstrained_response,
                   without_metrics.unconstrained_response);
  EXPECT_DOUBLE_EQ(with_metrics.ours_objective,
                   without_metrics.ours_objective);
}

TEST(Runner, RecordersDoNotChangeResults) {
  // Same contract as metrics: the audit log replays final bits and the
  // flight recorder samples computed values, so neither may perturb a
  // placement or a response time.
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  const RunOutcome off = run_single(cfg, spec, 29);

  RunOutcome on;
  {
    const testing::RecordingScope recorders(kRecAudit | kRecFlight);
    set_flight_sample_every(10);
    on = run_single(cfg, spec, 29);
    set_flight_sample_every(100);
    EXPECT_GT(global_audit_log().size(), 0u);
    EXPECT_GT(global_flight_log().size(), 0u);
  }

  EXPECT_DOUBLE_EQ(off.ours_response, on.ours_response);
  EXPECT_DOUBLE_EQ(off.lru_response, on.lru_response);
  EXPECT_DOUBLE_EQ(off.local_response, on.local_response);
  EXPECT_DOUBLE_EQ(off.remote_response, on.remote_response);
  EXPECT_DOUBLE_EQ(off.unconstrained_response, on.unconstrained_response);
  EXPECT_DOUBLE_EQ(off.ours_objective, on.ours_objective);
}

TEST(Runner, RepoFractionTriggersOffload) {
  // A very tight repository (2% of all MO requests) with unconstrained
  // local capacity: the off-loading negotiation must absorb the excess and
  // stay feasible.
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.repo_capacity_fraction = 0.02;
  const RunOutcome out = run_single(cfg, spec, 19);
  EXPECT_TRUE(out.ours_feasible);
  EXPECT_GT(out.ours_response, 0);
}

}  // namespace
}  // namespace mmr
