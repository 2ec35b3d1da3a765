// Discrete-event simulator throughput and latency-tail suite (sim/des.h).
//
//   ./bench/des_suite [--tier=small] [--requests=20000] [--arrival-rate=1.0]
//                     [--threads=1] [--shards=0] [--reps=3] [--warmup=1]
//                     [--bench-out=BENCH_des.json]
//
// One unmeasured setup pass generates the scale-tier workload and solves the
// placement; every measured rep then runs the DES over the same placement
// and records:
//
//   des.<tier>.requests_per_sec   page arrivals simulated per wall second
//   des.<tier>.events_per_sec     kernel events processed per wall second
//   des.<tier>.sim_wall_s         wall time of the DES run
//   des.<tier>.sojourn_p50/p95/p99  exact per-request sojourn quantiles [s]
//   des.<tier>.stretch_p99        informational (deterministic in the seed)
//
// CI gates requests/events per second and the sojourn p99 tail against
// bench/baselines/BENCH_des.json (tools/benchdiff --tail-rel); CI pins
// --threads=1 so the throughput floor is a single-core number.
#include <chrono>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/policy.h"
#include "sim/des.h"
#include "util/thread_pool.h"
#include "workload/scale.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  flags.describe("tier", "scale tier to simulate (default small)")
      .describe("arrival-rate", "offered-load multiplier (default 1.0)")
      .describe("shards", "phase-A server groups (default 0 = unsharded)");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  ExperimentConfig cfg = bench::config_from_flags(flags);
  const ScaleTier tier = parse_scale_tier(flags.get_string("tier", "small"));
  const char* tier_name = scale_tier_name(tier);

  // Setup (unmeasured): tier workload + placement, shared by every rep.
  std::unique_ptr<ThreadPool> pool;
  if (cfg.threads != 1) pool = std::make_unique<ThreadPool>(cfg.threads);
  const SystemModel sys = generate_scale_workload(
      scale_params(tier), mix_seed(cfg.base_seed, 0xDE5), {}, pool.get(), 16);
  PolicyOptions options;
  options.pool = pool.get();
  options.shards = 16;
  const PolicyResult result = run_replication_policy(sys, options);

  DesParams params;
  params.requests_per_server =
      static_cast<std::uint32_t>(flags.get_count("requests", 20000));
  params.arrival_rate_scale = flags.get_double("arrival-rate", 1.0);
  params.shards = static_cast<std::uint32_t>(flags.get_count("shards", 0));
  params.pool = pool.get();
  params.capture_samples = true;
  const DesSimulator sim(sys, params);

  return bench::run_measured([&] {
    const auto t0 = std::chrono::steady_clock::now();
    const DesMetrics m = sim.simulate(result.assignment, cfg.base_seed);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const std::string prefix = std::string("des.") + tier_name;
    const double reqs = static_cast<double>(m.arrivals);
    const double events = static_cast<double>(m.events);
    bench_collector().record(prefix + ".requests_per_sec", "1/s",
                             wall > 0 ? reqs / wall : 0, "higher");
    bench_collector().record(prefix + ".events_per_sec", "1/s",
                             wall > 0 ? events / wall : 0, "higher");
    bench_collector().record(prefix + ".sim_wall_s", "s", wall);
    bench_collector().record(prefix + ".sojourn_p50", "s",
                             m.sojourn_samples.quantile(0.50));
    bench_collector().record(prefix + ".sojourn_p95", "s",
                             m.sojourn_samples.quantile(0.95));
    bench_collector().record(prefix + ".sojourn_p99", "s",
                             m.sojourn_samples.quantile(0.99));
    bench_collector().record(prefix + ".stretch_p99", "1",
                             m.stretch_samples.quantile(0.99), "none");

    TextTable t({"metric", "value"});
    t.add_row({"tier", tier_name});
    t.add_row({"servers", std::to_string(sys.num_servers())});
    t.add_row({"arrivals", std::to_string(m.arrivals)});
    t.add_row({"kernel events", std::to_string(m.events)});
    t.add_row({"wall [s]", format_double(wall, 3)});
    t.add_row({"requests/s", format_double(reqs / wall / 1e6, 2) + "M"});
    t.add_row({"events/s", format_double(events / wall / 1e6, 2) + "M"});
    t.add_row({"p50 sojourn [s]",
               format_double(m.sojourn_samples.quantile(0.5), 3)});
    t.add_row({"p99 sojourn [s]",
               format_double(m.sojourn_samples.quantile(0.99), 3)});
    t.add_row({"redirected", std::to_string(m.redirects)});
    t.add_row({"rejected", std::to_string(m.rejects)});
    t.print(std::cout, "DES throughput (" + std::string(tier_name) + ")");
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
