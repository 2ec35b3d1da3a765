// Capacity planning: how much disk does a site actually need?
//
// The paper observes that its policy matches the LRU-at-100%-storage
// response time using only ~65% of the storage. This example sweeps the
// storage budget, locates that knee, and prints a planning table with the
// absolute byte footprint per site.
//
//   ./examples/capacity_planning [--runs=8] [--requests=2000]
#include <iostream>

#include "sim/runner.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/stats.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = Flags::parse(argc, argv);
  flags.describe("runs", "seeded repetitions per point (default 8)")
      .describe("requests", "page requests per site per run (default 2000)");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }

  ExperimentConfig cfg;
  cfg.runs = static_cast<std::uint32_t>(flags.get_count("runs", 8));
  cfg.sim.requests_per_server =
      static_cast<std::uint32_t>(flags.get_count("requests", 2000));
  cfg.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  ThreadPool pool;

  // The absolute footprint the percentages refer to.
  const SystemModel probe = generate_workload(cfg.workload, cfg.base_seed);
  const WorkloadStats ws = characterize(probe);
  std::cout << "Full replication footprint: "
            << format_bytes(ws.full_replication_bytes.mean())
            << " per site (mean)\n\n";

  // The target to match: ideal LRU with the full disk.
  ScenarioSpec full;
  full.storage_fraction = 1.0;
  full.run_local = full.run_remote = false;
  const ScenarioResult at_full = run_scenario(cfg, full, &pool);
  const double lru_target = at_full.lru.rel_increase.mean();
  std::cout << "Target: ideal LRU with 100% storage -> "
            << format_percent(lru_target) << " over unconstrained ours\n\n";

  TextTable t({"storage %", "disk per site", "ours rel. increase",
               "meets LRU@100% target"});
  double knee = -1;
  for (int pct = 30; pct <= 100; pct += 5) {
    ScenarioSpec spec;
    spec.storage_fraction = pct / 100.0;
    spec.run_lru = spec.run_local = spec.run_remote = false;
    const ScenarioResult r = run_scenario(cfg, spec, &pool);
    const double ours = r.ours.rel_increase.mean();
    const bool meets = ours <= lru_target;
    if (meets && knee < 0) knee = pct;
    t.begin_row()
        .add_cell(static_cast<std::int64_t>(pct))
        .add_cell(format_bytes(ws.full_replication_bytes.mean() * pct / 100.0))
        .add_cell(format_percent(ours))
        .add_cell(meets ? "yes" : "no");
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  t.print(std::cout, "storage budget sweep");
  if (knee > 0) {
    std::cout << "\nKnee: ~" << knee << "% of the full footprint ("
              << format_bytes(ws.full_replication_bytes.mean() * knee / 100.0)
              << " per site) already matches LRU with a full disk.\n"
              << "Paper's claim: ~65%.\n";
  } else {
    std::cout << "\nNo storage level in the sweep met the target.\n";
  }
  return 0;
} catch (const std::exception& e) {
  // A bad flag value (CheckError) is a message and exit 1, never an abort.
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
