// bench_suite — runs the pinned quick benchmark suite and merges the
// per-harness BENCH artifacts into one BENCH_suite.json, the unit of the
// repo's committed perf trajectory (bench/baselines/BENCH_suite.json) and of
// the CI perf gate (benchdiff against that baseline).
//
//   ./bench/bench_suite [--out=BENCH_suite.json] [--workdir=.]
//                       [--reps=3] [--warmup=0] [--keep-parts] [--verbose]
//
// Components are pinned so trajectories stay comparable across commits:
//   micro_core        --quick      (google-benchmark, s/iter series)
//   micro_structures  --quick
//   fig1_storage      --quick --threads=1  (solver + simulator end to end;
//                                          one thread, so its wall time
//                                          and peak RSS do not follow the
//                                          host's core count)
//   dist_response     --quick --obs  (response-time distribution tails,
//                                     sketch gauges for the p99 gate)
// Suite series are the component series prefixed "<component>.". Exit code
// is 0 when every component ran and its artifact parsed, 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "io/benchfmt.h"
#include "util/flags.h"

namespace {

struct Component {
  const char* name;
  const char* exe;
  const char* args;
};

constexpr Component kComponents[] = {
    {"micro_core", "micro_core", "--quick"},
    {"micro_structures", "micro_structures", "--quick"},
    {"fig1_storage", "fig1_storage",
     "--quick --runs=2 --requests=500 --threads=1"},
    {"dist_response", "dist_response", "--quick --requests=1000 --obs"},
};

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mmr;
  Flags flags = Flags::parse(argc, argv);
  flags.describe("out", "merged artifact path (default BENCH_suite.json)")
      .describe("workdir", "where per-component artifacts go (default .)")
      .describe("reps", "measured repetitions per component (default 3)")
      .describe("warmup", "warmup repetitions per component (default 0)")
      .describe("seed", "base seed forwarded to the simulation components")
      .describe("keep-parts", "keep the per-component BENCH_<name>.json files")
      .describe("verbose", "show component output instead of discarding it");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  const std::string out_path = flags.get_string("out", "BENCH_suite.json");
  const std::string workdir = flags.get_string("workdir", ".");
  const std::uint64_t reps = flags.get_count("reps", 3);
  const std::uint64_t warmup = flags.get_count("warmup", 0);
  const bool keep_parts = flags.get_bool("keep-parts", false);
  const bool verbose = flags.get_bool("verbose", false);

  // Components live next to this binary.
  std::string bindir = flags.program_name();
  const std::size_t slash = bindir.find_last_of('/');
  bindir = slash == std::string::npos ? std::string(".")
                                      : bindir.substr(0, slash);

  BenchArtifact suite;
  suite.tool = "bench_suite";
  suite.git_describe = build_git_describe();
  suite.timestamp_utc = iso8601_utc_now();
  suite.meta.emplace_back("reps", std::to_string(reps));
  suite.meta.emplace_back("warmup", std::to_string(warmup));

  bool ok = true;
  std::string components_json = "[";
  for (const Component& c : kComponents) {
    const std::string part =
        workdir + "/BENCH_" + c.name + ".json";
    const bool is_micro = std::string(c.exe).rfind("micro_", 0) == 0;
    std::string cmd = shell_quote(bindir + "/" + c.exe) + " " + c.args +
                      " --reps=" + std::to_string(reps);
    if (warmup > 0 && !is_micro) {
      cmd += " --warmup=" + std::to_string(warmup);
    }
    if (!is_micro && flags.has("seed")) {
      cmd += " --seed=" + std::to_string(flags.get_int("seed", 42));
    }
    cmd += " --bench-out=" + shell_quote(part);
    if (!verbose) cmd += " > /dev/null";
    std::cerr << "[bench_suite] " << c.name << ": " << cmd << "\n";
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::cerr << "[bench_suite] " << c.name << " FAILED (exit " << rc
                << ")\n";
      ok = false;
      continue;
    }
    try {
      const BenchArtifact part_artifact = read_bench_file(part);
      for (const BenchMeasurement& m : part_artifact.measurements) {
        BenchMeasurement renamed = m;
        renamed.name = std::string(c.name) + "." + m.name;
        suite.measurements.push_back(std::move(renamed));
      }
      if (components_json.size() > 1) components_json += ",";
      components_json += "\"" + std::string(c.name) + "\"";
      if (!keep_parts) std::remove(part.c_str());
    } catch (const std::exception& e) {
      std::cerr << "[bench_suite] " << c.name
                << " produced a bad artifact: " << e.what() << "\n";
      ok = false;
    }
  }
  components_json += "]";
  suite.meta.emplace_back("components", components_json);

  try {
    suite.finalize();
    write_bench_file(out_path, suite);
  } catch (const std::exception& e) {
    std::cerr << "[bench_suite] failed to write " << out_path << ": "
              << e.what() << "\n";
    return 1;
  }
  std::cout << "[bench_suite] wrote " << out_path << " ("
            << suite.measurements.size() << " series from "
            << (sizeof kComponents / sizeof kComponents[0])
            << " components)\n";
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
