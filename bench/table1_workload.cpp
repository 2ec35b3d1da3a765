// Table 1 reproduction: generate the default synthetic workload and print
// its measured characterization next to the paper's targets.
//
//   ./bench/table1_workload [--seed=N] [--runs=N]
#include <iostream>

#include "bench_common.h"
#include "workload/generator.h"
#include "workload/stats.h"

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto runs = static_cast<std::uint32_t>(flags.get_count("runs", 5));

  // No simulation here, but artifact flags should still work; wire them to
  // this harness' own defaults instead of going through config_from_flags.
  ExperimentConfig artifact_cfg;
  artifact_cfg.runs = runs;
  artifact_cfg.base_seed = seed;
  bench::init_artifacts(flags, artifact_cfg);
  return bench::run_measured([&] {
    const WorkloadParams params;  // paper defaults
    WorkloadStats agg;
    RunningStats hot_share, mean_mo_bytes, footprint;
    for (std::uint32_t r = 0; r < runs; ++r) {
      const SystemModel sys = generate_workload(params, mix_seed(seed, r));
      const WorkloadStats ws = characterize(sys, params.hot_page_fraction);
      if (r == 0) agg = ws;
      hot_share.add(ws.measured_hot_traffic_share);
      mean_mo_bytes.add(ws.object_bytes.mean());
      footprint.add(ws.full_replication_bytes.mean());
    }

    const SystemModel sys = generate_workload(params, seed);
    const WorkloadStats ws = characterize(sys, params.hot_page_fraction);

    TextTable t({"parameter", "Table 1 target", "measured (seed run)"});
    t.add_row({"local sites", "10", std::to_string(ws.num_servers)});
    t.add_row({"pages per LS", "400-800",
               format_double(ws.pages_per_server.mean(), 1) + " (" +
                   format_double(ws.pages_per_server.min(), 0) + "-" +
                   format_double(ws.pages_per_server.max(), 0) + ")"});
    t.add_row({"hot pages (10%) traffic share", "60%",
               format_share(ws.measured_hot_traffic_share)});
    t.add_row({"compulsory MOs per page", "5-45",
               format_double(ws.compulsory_per_page.min(), 0) + "-" +
                   format_double(ws.compulsory_per_page.max(), 0) + " (mean " +
                   format_double(ws.compulsory_per_page.mean(), 1) + ")"});
    t.add_row({"optional MOs per page (when present)", "10-85",
               format_double(ws.optional_per_page_when_present.min(), 0) + "-" +
                   format_double(ws.optional_per_page_when_present.max(), 0)});
    t.add_row({"pages with optional MOs", "10%",
               format_share(ws.fraction_pages_with_optional)});
    t.add_row({"MOs in the network", "15000", std::to_string(ws.num_objects)});
    t.add_row({"distinct MOs per LS", "1500-4500",
               format_double(ws.distinct_objects_per_server.min(), 0) + "-" +
                   format_double(ws.distinct_objects_per_server.max(), 0)});
    t.add_row({"mean HTML size", "~11.5 KiB (mixture)",
               format_bytes(ws.html_bytes.mean())});
    t.add_row({"mean MO size", "~620 KiB (mixture)",
               format_bytes(ws.object_bytes.mean())});
    t.add_row({"100% storage per LS", "~1.8 GiB",
               format_bytes(ws.full_replication_bytes.mean())});
    t.add_row({"mean page frequency f(W_j)", "(derived)",
               format_double(ws.page_frequency.mean(), 4) + " req/s"});
    t.print(std::cout, "Table 1 — workload characterization");

    TextTable across({"metric", "mean over " + std::to_string(runs) + " seeds",
                      "95% CI"});
    across.begin_row()
        .add_cell("hot traffic share")
        .add_cell(format_share(hot_share.mean()))
        .add_cell(format_double(hot_share.ci95_halfwidth() * 100, 2) + "%");
    across.begin_row()
        .add_cell("mean MO bytes")
        .add_cell(format_bytes(mean_mo_bytes.mean()))
        .add_cell(format_bytes(mean_mo_bytes.ci95_halfwidth()));
    across.begin_row()
        .add_cell("100% storage per LS")
        .add_cell(format_bytes(footprint.mean()))
        .add_cell(format_bytes(footprint.ci95_halfwidth()));
    across.print(std::cout, "stability across seeds");
  });
} catch (const std::exception& e) {
  return mmr::bench::exit_code_for(e);
}
