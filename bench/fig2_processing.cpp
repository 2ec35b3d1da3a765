// Figure 2 reproduction: mean response time vs local processing capacity.
//
// Storage is fixed at 100%, the repository is unconstrained, and the local
// capacity varies from 0% to 100% of the replication-related load of the
// unconstrained solution (0% == only the HTML can be served locally, i.e.
// the Remote policy; 100% == unconstrained). The paper reports a double-
// exponential curve: flat near 100%, exploding below ~60%.
//
//   ./bench/fig2_processing [--runs=20] [--requests=10000] [--quick]
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

    std::cout << "Figure 2: response time vs local processing capacity ("
              << cfg.runs << " runs x " << cfg.sim.requests_per_server
              << " requests/server)\n";

    ScenarioSpec ref;
    ref.run_lru = false;
    ref.run_local = false;
    const ScenarioResult reference = run_scenario(cfg, ref, &pool);
    std::cout << "Remote policy reference: "
              << bench::rel_cell(reference.remote.rel_increase) << "\n\n";

    TextTable t({"processing %", "ours rel. increase", "ours abs [s]",
                 "unconstrained [s]"});
    for (int pct = 0; pct <= 100; pct += 10) {
      ScenarioSpec spec;
      spec.local_proc_fraction = pct / 100.0;
      spec.run_lru = spec.run_local = spec.run_remote = false;
      const ScenarioResult r = run_scenario(cfg, spec, &pool);
      t.begin_row()
          .add_cell(static_cast<std::int64_t>(pct))
          .add_cell(bench::rel_cell(r.ours.rel_increase))
          .add_cell(r.ours.mean_response.mean(), 1)
          .add_cell(r.unconstrained_response.mean(), 1);
      std::cout << "." << std::flush;
    }
    std::cout << "\n\n";
    t.print(std::cout, "Figure 2 — relative response time vs local capacity");
    std::cout << "\nExpected shape: near 0% the curve meets the Remote policy "
                 "level above; response is\nonly marginally increased down to "
                 "~60% capacity (the heavy objects still fit), then\nrises "
                 "ever faster — the paper's double-exponential.\n";
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
