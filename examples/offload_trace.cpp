// Off-loading negotiation walkthrough: constrain the repository and print
// the round-by-round message trace of the protocol (status collection,
// L1/L2/L3 classification, proportional NewReq distribution, answers).
//
//   ./examples/offload_trace [--central=0.4] [--seed=3]
#include <iostream>

#include "core/policy.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/generator.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = Flags::parse(argc, argv);
  flags.describe("central", "repository capacity as a fraction of what the "
                            "unconstrained placement sends to it "
                            "(default 0.4)")
      .describe("servers", "number of local sites (default 4)")
      .describe("seed", "workload seed (default 3)");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  const double central = flags.get_double("central", 0.4);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));

  WorkloadParams wl;
  wl.num_servers = static_cast<std::uint32_t>(flags.get_count("servers", 4));
  wl.min_pages_per_server = 100;
  wl.max_pages_per_server = 150;
  wl.num_objects = 3000;
  wl.min_objects_per_server = 400;
  wl.max_objects_per_server = 800;
  wl.server_proc_capacity = kUnlimited;
  wl.repo_proc_capacity = kUnlimited;
  SystemModel sys = generate_workload(wl, seed);

  // Unconstrained pass to calibrate, then constrain the repository.
  PolicyOptions unc;
  unc.restore_storage_enabled = false;
  unc.restore_processing_enabled = false;
  unc.offload_enabled = false;
  const PolicyResult base = run_replication_policy(sys, unc);
  const double repo_load = base.assignment.repo_proc_load();
  set_repo_capacity(sys, repo_load, central);
  // Give the sites finite capacity so the L1/L2 split is non-trivial:
  // site 0 gets barely any headroom, the rest get plenty.
  std::vector<double> caps(sys.num_servers());
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    caps[i] = base.assignment.server_proc_load(i) + (i == 0 ? 0.05 : 50.0);
  }
  set_processing_capacities(sys, caps);

  std::cout << "Unconstrained placement sends "
            << format_double(repo_load, 2)
            << " req/s to the repository; C(R) set to "
            << format_double(repo_load * central, 2) << " req/s ("
            << format_share(central, 0) << ").\n"
            << "Site S0 has almost no processing headroom; the others have "
               "plenty.\n\n";

  const PolicyResult result = run_replication_policy(sys);
  std::cout << "=== negotiation trace ===\n"
            << result.offload_report.trace() << '\n';

  TextTable t({"stat", "value"});
  t.add_row({"rounds", std::to_string(result.offload_report.rounds.size())});
  t.add_row({"slots absorbed",
             std::to_string(result.offload_report.slots_absorbed)});
  t.add_row({"objects newly stored",
             std::to_string(result.offload_report.objects_allocated)});
  t.add_row({"swaps", std::to_string(result.offload_report.swaps)});
  t.add_row({"final repository load [req/s]",
             format_double(result.offload_report.final_repo_load, 2)});
  t.add_row({"converged", result.offload_report.converged ? "yes" : "no"});
  t.print(std::cout, "protocol summary");

  std::cout << "\nObjective D before off-loading: "
            << format_double(result.d_after_processing, 0)
            << "  after: " << format_double(result.d_after_offload, 0)
            << " (the protocol trades a little response time for Eq. 9).\n";
  return result.offload_report.converged ? 0 : 1;
} catch (const std::exception& e) {
  // A bad flag value (CheckError) is a message and exit 1, never an abort.
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
