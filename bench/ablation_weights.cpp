// Ablation A3: sensitivity to the objective weights (alpha1, alpha2).
//
// The paper fixes (2, 1) — "page retrieval matters more than optional
// objects". This bench sweeps the ratio under tight storage and reports both
// components of the objective and the simulated page/optional times.
//
//   ./bench/ablation_weights [--runs=8] [--storage=0.3]
#include <iostream>

#include "bench_common.h"
#include "workload/generator.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  flags.describe("storage", "storage fraction to stress (default 0.3)");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  ExperimentConfig cfg = bench::config_from_flags(flags);
  return bench::run_measured([&] {
    cfg.runs = static_cast<std::uint32_t>(flags.get_count("runs", 8));
    const double storage = flags.get_double("storage", 0.3);

    const std::pair<double, double> weight_sets[] = {
        {1.0, 0.0}, {4.0, 1.0}, {2.0, 1.0}, {1.0, 1.0}, {1.0, 2.0}, {0.0, 1.0}};

    std::cout << "Ablation A3: (alpha1, alpha2) sweep at " << storage * 100
              << "% storage (" << cfg.runs << " workloads)\n\n";

    TextTable t({"(a1, a2)", "D1 (page)", "D2 (optional)",
                 "sim page mean [s]", "sim optional mean [s]"});
    for (const auto& [a1, a2] : weight_sets) {
      RunningStats d1, d2, sim_page, sim_opt;
      for (std::uint32_t r = 0; r < cfg.runs; ++r) {
        WorkloadParams wl;
        wl.server_proc_capacity = kUnlimited;
        wl.repo_proc_capacity = kUnlimited;
        wl.storage_fraction = storage;
        const SystemModel sys =
            generate_workload(wl, mix_seed(cfg.base_seed, r));

        PolicyOptions opt;
        opt.weights = {a1, a2};
        opt.restore_processing_enabled = false;
        opt.offload_enabled = false;
        const PolicyResult res = run_replication_policy(sys, opt);
        d1.add(objective_d1_cached(res.assignment));
        d2.add(objective_d2_cached(res.assignment));

        SimParams sp = cfg.sim;
        sp.requests_per_server =
            std::min<std::uint32_t>(sp.requests_per_server, 1500);
        const Simulator sim(sys, sp);
        const SimMetrics m =
            sim.simulate(res.assignment, mix_seed(cfg.base_seed, 0xE0 + r));
        sim_page.add(m.page_response.mean());
        if (!m.optional_time.empty()) sim_opt.add(m.optional_time.mean());
      }
      t.begin_row()
          .add_cell("(" + format_double(a1, 1) + ", " + format_double(a2, 1) +
                    ")")
          .add_cell(d1.mean(), 0)
          .add_cell(d2.mean(), 0)
          .add_cell(sim_page.mean(), 1)
          .add_cell(sim_opt.empty() ? 0.0 : sim_opt.mean(), 1);
      std::cout << "." << std::flush;
    }
    std::cout << "\n\n";
    t.print(std::cout, "A3 — objective-weight sensitivity");
    std::cout << "\nReading: growing alpha2 trades page response time for "
                 "optional-object time;\nthe paper's (2,1) sits on the "
                 "page-favouring side, matching its stated intent.\n";
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
