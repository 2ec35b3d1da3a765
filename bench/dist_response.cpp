// Extension bench: response-time *distributions* (the paper reports only
// means). Prints p50/p90/p99 and an ASCII histogram per policy at a given
// storage budget — tail latencies are where the Remote policy and cold LRU
// caches hurt the most.
//
//   ./bench/dist_response [--storage=0.6] [--requests=5000]
#include <iostream>

#include "baselines/static_policies.h"
#include "bench_common.h"
#include "core/policy.h"
#include "workload/generator.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  flags.describe("storage", "storage fraction (default 0.6)");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  const ExperimentConfig cfg = bench::config_from_flags(flags);
  return bench::run_measured([&] {
    const double storage = flags.get_double("storage", 0.6);

    WorkloadParams wl;
    wl.server_proc_capacity = kUnlimited;
    wl.repo_proc_capacity = kUnlimited;
    wl.storage_fraction = storage;
    const SystemModel sys = generate_workload(wl, cfg.base_seed);

    SimParams sp = cfg.sim;
    sp.requests_per_server =
        std::min<std::uint32_t>(sp.requests_per_server, 5000);
    sp.capture_samples = true;
    const Simulator sim(sys, sp);
    const std::uint64_t seed = mix_seed(cfg.base_seed, 0xD15);

    const PolicyResult ours = run_replication_policy(sys);

    struct Row {
      const char* name;
      SimMetrics metrics;
    };
    std::vector<Row> rows;
    rows.push_back({"ours", sim.simulate(ours.assignment, seed)});
    rows.push_back({"ideal LRU", sim.simulate_lru(seed)});
    rows.push_back({"Local", sim.simulate(make_local_assignment(sys), seed)});
    rows.push_back({"Remote", sim.simulate(make_remote_assignment(sys), seed)});

    std::cout << "Response-time distributions at "
              << format_share(storage, 0) << " storage, "
              << sp.requests_per_server << " requests/server\n\n";

    TextTable t({"policy", "mean [s]", "p50 [s]", "p90 [s]", "p99 [s]",
                 "max [s]"});
    for (const Row& row : rows) {
      const SampleSet& s = row.metrics.page_samples;
      t.begin_row()
          .add_cell(row.name)
          .add_cell(s.mean(), 1)
          .add_cell(s.quantile(0.50), 1)
          .add_cell(s.quantile(0.90), 1)
          .add_cell(s.quantile(0.99), 1)
          .add_cell(s.max(), 1);
    }
    t.print(std::cout, "quantiles");

    // Shared-scale histograms (log-ish view via a wide linear range).
    const double hi = rows.back().metrics.page_samples.quantile(0.99);
    for (const Row& row : rows) {
      Histogram h(0.0, hi, 18);
      for (double x : row.metrics.page_samples.samples()) h.add(x);
      std::cout << "-- " << row.name << " --\n" << h.ascii(46) << '\n';
    }
    std::cout << "Reading: the parallel-download split compresses the whole "
                 "distribution, not just the\nmean; Remote's tail stretches "
                 "across the slow repository link, and LRU's misses\nshow up "
                 "as a heavy shoulder.\n";
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
