// Figure 3 under the load-dependent service extension (overload_exponent=1):
// when a component runs above its capacity, its transfers stretch
// proportionally. Unlike the paper's fixed-rate model — where an overloaded
// repository is silently free — an unrestored Eq. 9 violation now costs
// response time, so the central-capacity series separate across the whole
// local-capacity range.
//
//   ./bench/fig3_queueing [--runs=20] [--requests=10000] [--quick]
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  ExperimentConfig cfg = bench::config_from_flags(flags);
  return bench::run_measured([&] {
    cfg.sim.overload_exponent = flags.get_double("exponent", 1.0);
    ThreadPool pool(cfg.threads == 0 ? 0 : cfg.threads);

    std::cout << "Figure 3 (queueing extension): overload exponent "
              << cfg.sim.overload_exponent << ", " << cfg.runs << " runs x "
              << cfg.sim.requests_per_server << " requests/server\n\n";

    const int central_pcts[] = {90, 70, 50};
    TextTable t({"local %", "central 90%", "central 70%", "central 50%"});
    for (int local_pct = 50; local_pct <= 100; local_pct += 10) {
      std::vector<std::string> row;
      row.push_back(std::to_string(local_pct));
      for (int central : central_pcts) {
        ScenarioSpec spec;
        spec.local_proc_fraction = local_pct / 100.0;
        spec.repo_capacity_fraction = central / 100.0;
        spec.run_lru = spec.run_local = spec.run_remote = false;
        const ScenarioResult r = run_scenario(cfg, spec, &pool);
        row.push_back(bench::rel_cell(r.ours.rel_increase));
        std::cout << "." << std::flush;
      }
      t.add_row(std::move(row));
    }
    std::cout << "\n\n";
    t.print(std::cout,
            "Figure 3 (load-dependent service) — local x central capacity");
    std::cout << "\nReading: with overload made costly, tight central capacity "
                 "now hurts at every\nlocal tick — but the local-capacity "
                 "gradient still dominates, reinforcing the\npaper's "
                 "conclusion under a harsher service model.\n";
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
