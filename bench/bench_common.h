// Shared plumbing for the figure/table bench harnesses: flag parsing into an
// ExperimentConfig, repeated-measurement support, and consistent result
// formatting.
//
// Every harness accepts:
//   --runs=N        seeded repetitions averaged per point (paper: 20)
//   --requests=N    page requests per server per run (paper: 10000)
//   --seed=N        base seed
//   --threads=N     worker threads (0 = hardware)
//   --quick         shrink to runs=5, requests=2000 for a fast look
//   --bench-out=F   write a BENCH_<name>.json artifact when the harness
//                   exits (io/benchfmt schema)
//   --reps=N        measured repetitions of the whole harness body; each rep
//                   contributes one sample per bench series (default 1)
//   --warmup=N      extra leading repetitions discarded from bench stats
//   --obs           enable streaming telemetry without writing the artifact
//                   (obs.* gauges + sketch-derived bench series only)
// plus the run-artifact flags of obs/artifact_outputs.h (--metrics-out,
// --trace-out, --audit-out, --flight-out, --timeline-out, --sketch-out,
// --timeseries-out, --invariants-out and their knobs), written when the
// harness exits.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <streambuf>
#include <string>
#include <utility>

#include "io/artifacts.h"
#include "io/benchfmt.h"
#include "obs/artifact_outputs.h"
#include "obs/obs.h"
#include "sim/runner.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/recording.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace mmr::bench {

/// Prints an exception that escaped a harness main and returns its exit
/// code: kMemBudgetExitCode (3) for a blown --mem-budget, 1 for anything
/// else (a bad flag value, an invalid configuration). Every harness main is
/// a function-try-block ending in
///   catch (const std::exception& e) { return bench::exit_code_for(e); }
/// so a bad input is an error message, never an abort.
inline int exit_code_for(const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return dynamic_cast<const memacct::MemBudgetError*>(&e) != nullptr
             ? memacct::kMemBudgetExitCode
             : 1;
}

namespace detail {

/// Deferred artifact emission shared by every harness. Writers run from an
/// atexit handler on the main thread, after the harness' thread pools have
/// been torn down — so every worker's trace buffer has already flushed.
struct ArtifactState {
  bool initialized = false;
  ArtifactOutputs outputs;
  std::string bench_path;
  std::uint32_t reps = 1;
  std::uint32_t warmup = 0;
  RunMeta meta;
  std::chrono::steady_clock::time_point start;
};

inline ArtifactState& artifact_state() {
  static ArtifactState state;
  return state;
}

inline void write_artifacts_at_exit() {
  // An exception escaping an atexit handler is std::terminate; a bad output
  // path must not turn a finished run into an abort.
  try {
    ArtifactState& state = artifact_state();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      state.start)
            .count();
    state.meta.add("wall_seconds", wall);
    if (!state.bench_path.empty()) {
      write_bench_file(state.bench_path,
                       bench_collector().build(state.meta.tool, state.meta,
                                               state.warmup));
    }
    state.outputs.write(state.meta);
  } catch (const std::exception& e) {
    std::cerr << "error: failed to write run artifacts: " << e.what() << "\n";
  }
}

/// Swallows std::cout for its lifetime (repeat measurement reps re-run the
/// whole harness body; only the first rep should print its tables).
class CoutSilencer {
 public:
  explicit CoutSilencer(bool active) : active_(active) {
    if (active_) prev_ = std::cout.rdbuf(&null_buf_);
  }
  ~CoutSilencer() {
    if (active_) std::cout.rdbuf(prev_);
  }
  CoutSilencer(const CoutSilencer&) = delete;
  CoutSilencer& operator=(const CoutSilencer&) = delete;

 private:
  struct NullBuf : std::streambuf {
    int overflow(int c) override { return c; }
  };
  bool active_;
  NullBuf null_buf_;
  std::streambuf* prev_ = nullptr;
};

}  // namespace detail

/// Wires --bench-out and the run-artifact flags to files written when the
/// harness exits. Called by config_from_flags exactly once per process; a
/// second call is a programming error and fails fast instead of silently
/// re-registering the atexit writer over live ArtifactState.
inline void init_artifacts(const Flags& flags, const ExperimentConfig& cfg) {
  detail::ArtifactState& state = detail::artifact_state();
  MMR_CHECK_MSG(!state.initialized,
                "bench::init_artifacts called twice (config_from_flags may "
                "only run once per process)");
  // Every flag is checked before anything is marked initialized or
  // registered: a bad value throws and leaves no atexit writer behind.
  const auto reps = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, flags.get_count("reps", 1)));
  const auto warmup =
      static_cast<std::uint32_t>(flags.get_count("warmup", 0));
  const bool obs = flags.get_bool("obs", false);
  state.outputs.bind(flags);
  state.initialized = true;
  state.bench_path = flags.get_string("bench-out", "");
  state.reps = reps;
  state.warmup = warmup;
  // --obs turns streaming telemetry on without the artifact.
  if (obs) set_recording(recording_mask() | kRecObs);
  if (state.bench_path.empty() && !state.outputs.any()) return;
  state.start = std::chrono::steady_clock::now();
  std::string tool = flags.program_name();
  const std::size_t slash = tool.find_last_of('/');
  if (slash != std::string::npos) tool = tool.substr(slash + 1);
  state.meta.tool = tool;
  state.meta.add("runs", static_cast<std::uint64_t>(cfg.runs))
      .add("requests_per_server",
           static_cast<std::uint64_t>(cfg.sim.requests_per_server))
      .add("base_seed", cfg.base_seed)
      .add("threads", static_cast<std::uint64_t>(cfg.threads))
      .add("reps", static_cast<std::uint64_t>(state.reps))
      .add("warmup", static_cast<std::uint64_t>(state.warmup));
  state.outputs.stamp(state.meta);
  std::atexit(detail::write_artifacts_at_exit);
}

/// Reads the shared flags. A bad value throws CheckError here, before any
/// pool is built or artifact writer registered.
inline ExperimentConfig config_from_flags(const Flags& flags) {
  ExperimentConfig cfg;
  const bool quick = flags.get_bool("quick", false);
  cfg.runs =
      static_cast<std::uint32_t>(flags.get_count("runs", quick ? 5 : 20));
  cfg.sim.requests_per_server = static_cast<std::uint32_t>(
      flags.get_count("requests", quick ? 2000 : 10000));
  cfg.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  cfg.threads = static_cast<std::uint32_t>(
      flags.get_count("threads", 0, ThreadPool::kMaxThreads));
  // Non-convergence is reported in the result tables ("[N unrestored]");
  // keep per-run warnings out of the bench output unless asked for.
  set_log_level(flags.get_bool("verbose", false) ? LogLevel::kInfo
                                                 : LogLevel::kError);
  init_artifacts(flags, cfg);
  return cfg;
}

inline Flags standard_flags(int argc, const char* const* argv) {
  Flags flags = Flags::parse(argc, argv);
  flags.describe("runs", "seeded repetitions per point (default 20)")
      .describe("requests", "page requests per server (default 10000)")
      .describe("seed", "base seed (default 42)")
      .describe("threads",
                "worker threads, 0 = hardware, at most 1024 (default 0)")
      .describe("quick", "fast mode: runs=5, requests=2000")
      .describe("verbose", "enable info logging")
      .describe("bench-out",
                "write a BENCH_<name>.json benchmark artifact on exit")
      .describe("reps",
                "measured repetitions of the harness body (default 1); "
                "output prints once, every rep samples the bench series")
      .describe("warmup",
                "extra leading repetitions discarded from bench stats")
      .describe("obs",
                "enable streaming telemetry without writing the artifact");
  ArtifactOutputs::describe(flags);
  return flags;
}

/// Runs the harness body --warmup + --reps times (default once). Every
/// repetition samples the process bench series:
///   harness.wall_s — wall time of the body,
///   harness.cpu_user_s / harness.cpu_sys_s — rusage CPU-time deltas,
///   harness.peak_rss_bytes — process high-water RSS after the rep,
///   plus the per-rep gauge.* values via record_gauge_series, which is
///   where final D and (with --obs) the sketch's response-time percentiles
///   enter the BENCH artifact.
/// Output is printed by the first repetition only. Returns the harness exit
/// code (always 0; kept as the return value so mains can `return` it).
template <typename Body>
inline int run_measured(Body&& body) {
  detail::ArtifactState& state = detail::artifact_state();
  const bool collect = !state.bench_path.empty();
  const std::uint32_t total =
      collect ? state.warmup + state.reps : 1;
  for (std::uint32_t rep = 0; rep < total; ++rep) {
    detail::CoutSilencer quiet(rep > 0);
    const CpuTimes cpu0 = process_cpu_times();
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const CpuTimes cpu1 = process_cpu_times();
    // Main-thread only, before the snapshot: the sketch-derived obs.*
    // gauges must land in this rep's gauge series deterministically
    // (gauge merge order is thread-dependent for worker-set gauges).
    if (recording(kRecObs)) set_obs_gauges();
    if (collect) {
      bench_collector().record("harness.wall_s", "s", wall);
      bench_collector().record("harness.cpu_user_s", "s",
                               cpu1.user_s - cpu0.user_s);
      bench_collector().record("harness.cpu_sys_s", "s",
                               cpu1.sys_s - cpu0.sys_s);
      // High-water mark, not a delta: rusage peaks never decrease, so the
      // series is flat across reps once the footprint is established.
      bench_collector().record("harness.peak_rss_bytes", "B",
                               static_cast<double>(peak_rss_bytes()));
      record_gauge_series(bench_collector(), current_metrics().snapshot());
    }
  }
  return 0;
}

/// "+33.5% ± 2.1%" — mean relative increase with the 95% CI half-width.
inline std::string rel_cell(const RunningStats& s) {
  if (s.empty()) return "-";
  return format_percent(s.mean()) + " ± " +
         format_double(s.ci95_halfwidth() * 100.0, 1) + "%";
}

}  // namespace mmr::bench
