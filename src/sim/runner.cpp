#include "sim/runner.h"

#include <optional>
#include <vector>

#include "baselines/static_policies.h"
#include "io/provenance.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/recording.h"
#include "util/trace.h"
#include "workload/generator.h"

namespace mmr {

RunOutcome run_single(const ExperimentConfig& config, const ScenarioSpec& spec,
                      std::uint64_t seed) {
  TraceSpan run_span("run_single");
  if (run_span.active()) run_span.arg("seed", seed);
  // Provenance run tag: a direct caller gets the seed as its tag; under
  // run_scenario the scope installed in the worker lambda already names this
  // run, and nesting another scope here would shadow it.
  std::optional<ProvenanceRunScope> run_scope;
  if (current_provenance_run() == kProvenanceNoRun) run_scope.emplace(seed);
  // 1. Unconstrained instance: capacities wide open, storage at 100%.
  WorkloadParams wl = config.workload;
  wl.server_proc_capacity = kUnlimited;
  wl.repo_proc_capacity = kUnlimited;
  wl.storage_fraction = 1.0;
  SystemModel sys = generate_workload(wl, seed);

  // 2. Unconstrained solution (calibrates the "% capacity" axes).
  PolicyOptions unconstrained_options = config.policy;
  unconstrained_options.restore_storage_enabled = false;
  unconstrained_options.restore_processing_enabled = false;
  unconstrained_options.offload_enabled = false;
  PolicyResult unc = [&] {
    MetricLabelScope label("unconstrained");
    return run_replication_policy(sys, unconstrained_options);
  }();

  // Capacity axes are calibrated against the all-local load ("100% of the
  // arriving requests") and the mandatory HTML-only load ("0%").
  const Assignment all_local = make_local_assignment(sys);
  std::vector<double> full_local_load(sys.num_servers());
  std::vector<double> mandatory_load(sys.num_servers());
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    full_local_load[i] = all_local.server_proc_load(i);
    mandatory_load[i] = sys.page_request_rate(i);  // HTML requests only
  }
  // Figure-3 calibration: 100% repository capacity == the load the
  // unconstrained solution imposes on R (see runner.h).
  const double unconstrained_repo_load = unc.assignment.repo_proc_load();

  // 3. Apply the scenario.
  set_storage_fraction(sys, spec.storage_fraction);
  if (spec.local_proc_fraction) {
    std::vector<double> capacities(sys.num_servers());
    for (ServerId i = 0; i < sys.num_servers(); ++i) {
      capacities[i] = std::max(mandatory_load[i],
                               *spec.local_proc_fraction *
                                   full_local_load[i]);
      capacities[i] = std::max(capacities[i], 1e-9);
    }
    set_processing_capacities(sys, capacities);
  }
  if (spec.repo_capacity_fraction) {
    set_repo_capacity(sys, unconstrained_repo_load,
                      *spec.repo_capacity_fraction);
  }

  // Capacities changed but the unconstrained placement's decision bits are
  // still meaningful; its cached loads are capacity-independent, so the
  // simulation below can reuse it as the per-run baseline.

  // 4. Constrained policy + baselines.
  PolicyResult ours = [&] {
    MetricLabelScope label("ours");
    return run_replication_policy(sys, config.policy);
  }();

  // 5. Simulate everything on the same stream. Each policy's simulation
  // runs under its label so per-policy records (obs sketches, flight rows)
  // stay distinguishable after the canonical shard merge.
  Simulator simulator(sys, config.sim);
  const std::uint64_t sim_seed = mix_seed(seed, 0x5EED);

  RunOutcome out;
  {
    MetricLabelScope label("unconstrained");
    out.unconstrained_response =
        simulator.simulate(unc.assignment, sim_seed).page_response.mean();
  }
  {
    MetricLabelScope label("ours");
    out.ours_response =
        simulator.simulate(ours.assignment, sim_seed).page_response.mean();
  }
  out.ours_objective =
      objective_total_cached(ours.assignment, config.policy.weights);
  out.ours_feasible = ours.feasible;
  if (!out.ours_feasible) MMR_COUNT("runner.infeasible_runs", 1);
  if (spec.run_lru) {
    MetricLabelScope label("lru");
    out.lru_response = simulator.simulate_lru(sim_seed).page_response.mean();
  }
  if (spec.run_local) {
    MetricLabelScope label("local");
    // Reuses the all-local assignment built for calibration above: its
    // decision bits and cached times are capacity-independent, so the
    // scenario's capacity changes do not invalidate it.
    out.local_response =
        simulator.simulate(all_local, sim_seed).page_response.mean();
  }
  if (spec.run_remote) {
    MetricLabelScope label("remote");
    out.remote_response =
        simulator.simulate(make_remote_assignment(sys), sim_seed)
            .page_response.mean();
  }
  MMR_COUNT("runner.runs", 1);
  return out;
}

ScenarioResult run_scenario(const ExperimentConfig& config,
                            const ScenarioSpec& spec, ThreadPool* pool) {
  MMR_CHECK_MSG(config.runs > 0, "need at least one run");
  ScenarioResult result;
  result.runs = config.runs;
  TraceSpan scenario_span("run_scenario");
  if (scenario_span.active()) {
    scenario_span.arg("runs", static_cast<std::uint64_t>(config.runs));
  }
  // Capture the aggregation target on the calling thread: pool workers run
  // each seed under a private registry, and the registries and outcomes are
  // folded in run order after the pool finishes, so every sum, mean and
  // gauge `last` is identical whatever the thread count.
  MetricsRegistry* metrics_target =
      recording(kRecMetrics) ? &current_metrics() : nullptr;
  std::vector<MetricsRegistry> run_metrics(
      metrics_target != nullptr ? config.runs : 0);
  std::vector<RunOutcome> outcomes(config.runs);

  // Seeds are the outer parallelism here: when they run on the pool, the
  // solver must not re-enter the same pool from a worker (parallel_for is
  // not reentrant), so the per-run config drops the solver pool.
  ExperimentConfig run_config = config;
  if (pool != nullptr && pool->thread_count() > 1) {
    run_config.policy.pool = nullptr;
  }

  // One tag per scenario invocation; each run composes it with its index so
  // audit/flight rows from different runs (and repeated scenarios) never
  // collide, at any thread count.
  const std::uint64_t scenario_tag = next_provenance_scenario();

  auto one = [&](std::size_t r) {
    // Installed inside the worker (the tag is thread-local, so installing it
    // on the calling thread would be invisible to pool workers).
    ProvenanceRunScope prov_scope((scenario_tag << 32) |
                                  static_cast<std::uint32_t>(r));
    const std::uint64_t seed = mix_seed(config.base_seed, 1000 + r);
    MetricsScope scope(metrics_target != nullptr ? &run_metrics[r] : nullptr);
    outcomes[r] = run_single(run_config, spec, seed);
  };

  if (pool != nullptr) {
    pool->parallel_for(config.runs, one);
  } else {
    for (std::size_t r = 0; r < config.runs; ++r) one(r);
  }

  for (std::size_t r = 0; r < config.runs; ++r) {
    if (metrics_target != nullptr) metrics_target->merge(run_metrics[r]);
    const RunOutcome& out = outcomes[r];
    const double base = out.unconstrained_response;
    result.unconstrained_response.add(base);
    result.policy_d.add(out.ours_objective);
    result.ours.mean_response.add(out.ours_response);
    result.ours.rel_increase.add(relative_increase(out.ours_response, base));
    if (spec.run_lru) {
      result.lru.mean_response.add(out.lru_response);
      result.lru.rel_increase.add(relative_increase(out.lru_response, base));
    }
    if (spec.run_local) {
      result.local.mean_response.add(out.local_response);
      result.local.rel_increase.add(
          relative_increase(out.local_response, base));
    }
    if (spec.run_remote) {
      result.remote.mean_response.add(out.remote_response);
      result.remote.rel_increase.add(
          relative_increase(out.remote_response, base));
    }
    if (!out.ours_feasible) ++result.infeasible_runs;
  }

  MMR_GAUGE("runner.response.unconstrained",
            result.unconstrained_response.mean());
  MMR_GAUGE("runner.response.ours", result.ours.mean_response.mean());
  if (spec.run_lru) {
    MMR_GAUGE("runner.response.lru", result.lru.mean_response.mean());
  }
  if (spec.run_local) {
    MMR_GAUGE("runner.response.local", result.local.mean_response.mean());
  }
  if (spec.run_remote) {
    MMR_GAUGE("runner.response.remote", result.remote.mean_response.mean());
  }
  return result;
}

}  // namespace mmr
