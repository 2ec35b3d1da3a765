// benchdiff — compare two BENCH_<name>.json artifacts with noise-aware
// thresholds (docs/OBSERVABILITY.md "Benchmark artifacts & perf gate").
//
//   benchdiff <baseline.json> <candidate.json>
//       [--rel=0.05]      relative threshold, fraction of |baseline mean|
//       [--mem-rel=-1]    relative threshold for byte-unit series (RSS);
//                         negative = use --rel
//       [--tail-rel=-1]   relative threshold for tail series (name contains
//                         "p99"); negative = use --rel
//       [--regress-rel=-1] relative threshold applied only to deltas in a
//                         series' bad direction; improvements keep the
//                         symmetric bound. negative = symmetric
//       [--k=3]           stddev multiplier (noisier of the two runs)
//       [--min-abs=0]     absolute delta floor in the series' unit
//       [--filter=STR]    only compare series whose name contains STR;
//                         repeatable — a series matching ANY filter is kept
//       [--rel-for=P:R]   series whose name starts with prefix P use
//                         relative threshold R instead of --rel/--mem-rel/
//                         --tail-rel; repeatable, longest prefix wins (the
//                         scale gate keys per-tier bounds off this)
//       [--json-out=F]    also write the machine-readable verdict JSON
//       [--quiet]         suppress the human table (summary line only)
//
// Exit codes: 0 = no regressions (improvements are fine), 1 = at least one
// regression or a selected baseline series missing from the candidate,
// 2 = usage or I/O error. The CI perf gate runs this against
// bench/baselines/BENCH_suite.json with
// --filter=wall_s --filter=peak_rss_bytes --rel=0.25 --mem-rel=0.35.
#include <fstream>
#include <iostream>

#include "io/benchdiff.h"
#include "io/benchfmt.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace mmr;
  Flags flags = Flags::parse(argc, argv);
  flags.describe("rel", "relative threshold as a fraction (default 0.05)")
      .describe("mem-rel",
                "relative threshold for byte-unit series (negative = --rel)")
      .describe("tail-rel",
                "relative threshold for p99/p999 series (negative = --rel)")
      .describe("regress-rel",
                "bad-direction-only relative threshold (negative = "
                "symmetric)")
      .describe("k", "stddev multiplier for the noise bound (default 3)")
      .describe("min-abs", "absolute delta floor (default 0)")
      .describe("filter", "substring filter on series names (repeatable)")
      .describe("rel-for",
                "PREFIX:REL per-prefix relative threshold override "
                "(repeatable, longest prefix wins)")
      .describe("json-out", "write verdict JSON to this path")
      .describe("quiet", "summary line only, no table");
  if (flags.help_requested()) {
    std::cout << "usage: benchdiff <baseline.json> <candidate.json> [flags]\n"
              << flags.help();
    return 0;
  }
  if (flags.positional().size() != 2) {
    std::cerr << "usage: benchdiff <baseline.json> <candidate.json> [flags]\n";
    return 2;
  }
  try {
    const BenchArtifact baseline = read_bench_file(flags.positional()[0]);
    const BenchArtifact candidate = read_bench_file(flags.positional()[1]);

    BenchDiffOptions options;
    options.rel_threshold = flags.get_double("rel", options.rel_threshold);
    options.stddev_k = flags.get_double("k", options.stddev_k);
    options.min_abs = flags.get_double("min-abs", options.min_abs);
    options.mem_rel_threshold =
        flags.get_double("mem-rel", options.mem_rel_threshold);
    options.tail_rel_threshold =
        flags.get_double("tail-rel", options.tail_rel_threshold);
    options.regress_rel_threshold =
        flags.get_double("regress-rel", options.regress_rel_threshold);
    options.filters = flags.get_string_list("filter");
    for (const std::string& spec : flags.get_string_list("rel-for")) {
      const std::size_t colon = spec.find_last_of(':');
      if (colon == std::string::npos || colon + 1 == spec.size()) {
        std::cerr << "error: --rel-for expects PREFIX:REL, got '" << spec
                  << "'\n";
        return 2;
      }
      options.rel_overrides.emplace_back(spec.substr(0, colon),
                                         std::stod(spec.substr(colon + 1)));
    }

    const BenchDiffReport report =
        diff_bench_artifacts(baseline, candidate, options);

    std::cout << "baseline:  " << baseline.tool << " @ "
              << baseline.git_describe << " (" << baseline.timestamp_utc
              << ")\ncandidate: " << candidate.tool << " @ "
              << candidate.git_describe << " (" << candidate.timestamp_utc
              << ")\n\n";
    if (flags.get_bool("quiet", false)) {
      write_benchdiff_summary(std::cout, report);
    } else {
      write_benchdiff_table(std::cout, report);
    }

    const std::string json_out = flags.get_string("json-out", "");
    if (!json_out.empty()) {
      std::ofstream os(json_out);
      if (!os.good()) {
        std::cerr << "error: cannot open '" << json_out << "' for writing\n";
        return 2;
      }
      write_benchdiff_json(os, report, options);
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
