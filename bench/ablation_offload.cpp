// Ablation A4: the off-loading negotiation on/off under a constrained
// repository, plus the contribution of its swap phase.
//
//   ./bench/ablation_offload [--runs=8] [--central=0.5]
#include <iostream>

#include "bench_common.h"
#include "workload/generator.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  flags.describe("central", "repo capacity fraction of the unconstrained "
                            "solution's repo load (default 0.5)");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  ExperimentConfig cfg = bench::config_from_flags(flags);
  return bench::run_measured([&] {
    cfg.runs = static_cast<std::uint32_t>(flags.get_count("runs", 8));
    const double central = flags.get_double("central", 0.5);

    std::cout << "Ablation A4: off-loading protocol at " << central * 100
              << "% central capacity (" << cfg.runs << " workloads)\n\n";

    struct Variant {
      const char* name;
      bool offload;
      bool swap;
    };
    const Variant variants[] = {
        {"off-loading with swap (full)", true, true},
        {"off-loading without swap", true, false},
        {"no off-loading", false, false},
    };

    const Weights w;
    RunningStats repo_load[3], converged[3], d_total[3];
    for (std::uint32_t r = 0; r < cfg.runs; ++r) {
      WorkloadParams wl;
      wl.server_proc_capacity = kUnlimited;
      wl.repo_proc_capacity = kUnlimited;
      SystemModel sys = generate_workload(wl, mix_seed(cfg.base_seed, r));

      // Calibrate the repository against the unconstrained placement.
      PolicyOptions unc;
      unc.restore_storage_enabled = false;
      unc.restore_processing_enabled = false;
      unc.offload_enabled = false;
      const PolicyResult base = run_replication_policy(sys, unc);
      set_repo_capacity(sys, base.assignment.repo_proc_load(), central);

      for (int v = 0; v < 3; ++v) {
        PolicyOptions opt;
        opt.offload_enabled = variants[v].offload;
        opt.offload.allow_swap = variants[v].swap;
        const PolicyResult res = run_replication_policy(sys, opt);
        repo_load[v].add(res.assignment.repo_proc_load());
        const bool ok = within_capacity(res.assignment.repo_proc_load(),
                                        sys.repository().proc_capacity);
        converged[v].add(ok ? 1.0 : 0.0);
        d_total[v].add(objective_total_cached(res.assignment, w));
      }
      std::cout << "." << std::flush;
    }
    std::cout << "\n\n";

    TextTable t({"variant", "repo load [req/s]", "Eq.9 satisfied",
                 "objective D"});
    for (int v = 0; v < 3; ++v) {
      t.begin_row()
          .add_cell(variants[v].name)
          .add_cell(repo_load[v].mean(), 1)
          .add_cell(format_share(converged[v].mean(), 0))
          .add_cell(d_total[v].mean(), 0);
    }
    t.print(std::cout, "A4 — off-loading ablation");
    std::cout << "\nReading: without the negotiation the repository stays "
                 "overloaded; the protocol\nrestores Eq. 9 at a modest "
                 "objective cost, and the swap phase helps when plain\n"
                 "absorption runs out of storage headroom.\n";
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
