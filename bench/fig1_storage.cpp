// Figure 1 reproduction: mean response time vs local storage capacity.
//
// Per the paper: the local processing constraint is relaxed, storage varies
// from 10% to 100% of the full-replication footprint; our policy and the
// ideal LRU caching scheme are plotted relative to our policy with no
// constraints; Remote and Local are storage-independent reference lines
// (paper: +335% and +23.8%).
//
//   ./bench/fig1_storage [--runs=20] [--requests=10000] [--quick]
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  const ExperimentConfig cfg = bench::config_from_flags(flags);
  return bench::run_measured([&] {
    ThreadPool pool(cfg.threads == 0 ? 0 : cfg.threads);

    std::cout << "Figure 1: response time vs local storage capacity ("
              << cfg.runs << " runs x " << cfg.sim.requests_per_server
              << " requests/server)\n";

    // Reference lines measured once at 100% storage (they ignore storage).
    ScenarioSpec ref;
    ref.storage_fraction = 1.0;
    ref.run_lru = false;
    const ScenarioResult reference = run_scenario(cfg, ref, &pool);
    std::cout << "Remote policy: "
              << bench::rel_cell(reference.remote.rel_increase)
              << "   (paper: +335%)\n"
              << "Local policy:  "
              << bench::rel_cell(reference.local.rel_increase)
              << "   (paper: +23.8%)\n\n";

    TextTable t({"storage %", "ours rel. increase", "LRU rel. increase",
                 "ours abs [s]", "LRU abs [s]", "unconstrained [s]"});
    for (int pct = 10; pct <= 100; pct += 10) {
      ScenarioSpec spec;
      spec.storage_fraction = pct / 100.0;
      spec.run_local = false;
      spec.run_remote = false;
      const ScenarioResult r = run_scenario(cfg, spec, &pool);
      t.begin_row()
          .add_cell(static_cast<std::int64_t>(pct))
          .add_cell(bench::rel_cell(r.ours.rel_increase))
          .add_cell(bench::rel_cell(r.lru.rel_increase))
          .add_cell(r.ours.mean_response.mean(), 1)
          .add_cell(r.lru.mean_response.mean(), 1)
          .add_cell(r.unconstrained_response.mean(), 1);
      std::cout << "." << std::flush;
    }
    std::cout << "\n\n";
    t.print(std::cout, "Figure 1 — relative response time vs storage");
    std::cout << "\nExpected shape: ours <= LRU at every storage level; the "
                 "gap is widest at 100%\nwhere LRU degenerates to the Local "
                 "policy; ours at ~65% matches LRU at 100%.\n";
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
