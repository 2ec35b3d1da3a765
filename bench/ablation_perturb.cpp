// Ablation A5: robustness to estimation error (paper Sec. 5.1's motivation
// for perturbing rates/overheads away from the allocation-time estimates).
//
// Sweeps the perturbation severity from 0 (actuals == estimates) past the
// paper's setting (1.0) and reports how the ranking ours / LRU / Local /
// Remote holds up.
//
//   ./bench/ablation_perturb [--runs=8] [--storage=0.6]
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  flags.describe("storage", "storage fraction (default 0.6)");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  ExperimentConfig cfg = bench::config_from_flags(flags);
  return bench::run_measured([&] {
    cfg.runs = static_cast<std::uint32_t>(flags.get_count("runs", 8));
    if (!flags.has("requests") && !flags.has("quick")) {
      cfg.sim.requests_per_server = 4000;
    }
    const double storage = flags.get_double("storage", 0.6);
    ThreadPool pool(cfg.threads == 0 ? 0 : cfg.threads);

    std::cout << "Ablation A5: estimation-error severity sweep at "
              << storage * 100 << "% storage (" << cfg.runs
              << " runs per point)\n\n";

    TextTable t({"severity", "ours rel.", "LRU rel.", "Local rel.",
                 "Remote rel."});
    // 1.2 is the largest severity for which every band stays positive
    // (the congested local class bottoms out at 1 + s*(1/6 - 1)).
    for (double severity : {0.0, 0.3, 0.6, 1.0, 1.2}) {
      ExperimentConfig point = cfg;
      point.sim.perturb.severity = severity;
      ScenarioSpec spec;
      spec.storage_fraction = storage;
      const ScenarioResult r = run_scenario(point, spec, &pool);
      t.begin_row()
          .add_cell(severity, 1)
          .add_cell(bench::rel_cell(r.ours.rel_increase))
          .add_cell(bench::rel_cell(r.lru.rel_increase))
          .add_cell(bench::rel_cell(r.local.rel_increase))
          .add_cell(bench::rel_cell(r.remote.rel_increase));
      std::cout << "." << std::flush;
    }
    std::cout << "\n\n";
    t.print(std::cout, "A5 — robustness to estimation error");
    std::cout << "\nReading: the policy's advantage persists as actual network "
                 "conditions drift\nfurther from the estimates used at "
                 "allocation time (the paper's robustness claim).\n";
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
