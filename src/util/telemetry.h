// Runtime telemetry for long solves (docs/OBSERVABILITY.md "Watching a
// long solve"): phase tracking, progress/ETA reporting, process resource
// probes, hardware perf counters and a background timeline sampler.
//
// Everything here is wall-clock observability in the trace.json sense:
// off by default, draws from no RNG stream, and never changes a placement
// or a simulated response time (guarded by test_telemetry) — but the
// *values* it records (RSS, cycles, sample timing) are inherently
// non-deterministic. The deterministic byte-accounting plane lives in
// util/memacct.h; the timeline sampler snapshots both.
//
//   * Phases: each solver/sim phase opens one PhaseScope. It owns the
//     phase's trace span and publishes the phase name (a relaxed atomic
//     pointer to a static string) so each timeline sample can say what the
//     process was doing.
//   * Progress: ProgressReporter emits a throttled single-line stderr
//     progress/ETA display (`--progress`) from partition_all /
//     restore_storage / restore_processing.
//   * PerfCounters: a raw perf_event_open(2) wrapper for cycles,
//     instructions, cache misses and branch misses. Opens degrade
//     gracefully (available() == false) when the kernel denies access —
//     CI containers typically do — and the timeline artifact then carries
//     a "counters": "unavailable" stanza instead of numbers.
//   * TimelineSampler: a background thread that every interval snapshots
//     RSS, memacct category totals, metrics counter deltas, the active
//     phase and the perf counters into an in-memory series; io/artifacts.h
//     writes it as the `mmr-timeline` JSONL artifact
//     (--timeline-out / --timeline-interval-ms, docs/FORMATS.md).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/memacct.h"
#include "util/trace.h"

namespace mmr {

// ---------------------------------------------------------------------------
// Phase tracking.

/// The phase name the process most recently entered ("partition",
/// "storage_restore", "simulate", ...), or "idle" outside any scope. The
/// string has static storage duration. With concurrent runs the last writer
/// wins — acceptable for a wall-clock sampler.
const char* telemetry_current_phase();

/// One reading of the counter group, cumulative since open().
struct PerfCounterValues {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
};

/// RAII scope of one solver or simulator phase, the one place a phase is
/// named. It owns the phase's TraceSpan (recorded only while tracing is
/// on; per-phase wall time comes from these spans) and publishes `name` as
/// telemetry_current_phase() until it ends, restoring the enclosing phase.
/// Only while a timeline sampler with live perf counters is running, it
/// also reads the counters on entry and exit to feed the per-phase perf
/// totals. `name` must outlive the scope (string literals in practice).
class PhaseScope {
 public:
  explicit PhaseScope(const char* name);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// The phase's span, for attaching args.
  TraceSpan& span() { return span_; }

 private:
  TraceSpan span_;  ///< first member: opens first, closes last
  const char* name_;
  const char* prev_;
  bool perf_active_ = false;
  std::uint64_t perf_epoch_ = 0;  ///< guards against sampler restarts
  PerfCounterValues entry_;
};

// ---------------------------------------------------------------------------
// Progress reporting (--progress, the kRecProgress bit).

/// Emits `\r<phase> done/total (pct%) elapsed Xs eta Ys` to stderr, at most
/// every ~200 ms, plus a final newline-terminated line when the scope ends.
/// tick() is safe from pool workers (atomic counter; one thread at a time
/// wins the throttled emit). When progress is disabled every call is a
/// no-op beyond one branch, and nothing here touches an RNG stream.
class ProgressReporter {
 public:
  ProgressReporter(const char* phase, std::uint64_t total);
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  void tick(std::uint64_t n = 1);

 private:
  struct Impl;
  Impl* impl_ = nullptr;  ///< null when progress is disabled
};

// ---------------------------------------------------------------------------
// Process resource probes.

/// Resident set size in bytes from /proc/self/statm; 0 when unavailable.
std::uint64_t current_rss_bytes();

/// Process high-water RSS in bytes from getrusage(2); 0 when unavailable.
std::uint64_t peak_rss_bytes();

/// Cumulative process CPU time from getrusage(2), in seconds.
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
CpuTimes process_cpu_times();

// ---------------------------------------------------------------------------
// Hardware perf counters.

/// Raw perf_event_open(2) wrapper measuring the opening thread (and, on
/// kernels that aggregate inherited events, threads it spawns later).
/// open() returns false — and available() stays false — when the kernel
/// denies access (EACCES/EPERM under perf_event_paranoid, ENOSYS in
/// containers that seccomp-filter the syscall); callers fall back to the
/// "counters": "unavailable" stanza.
class PerfCounters {
 public:
  PerfCounters() = default;
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  bool open();
  void close();
  bool available() const { return available_; }
  PerfCounterValues read() const;

 private:
  int fds_[4] = {-1, -1, -1, -1};
  bool available_ = false;
};

// ---------------------------------------------------------------------------
// Timeline sampler.

/// One periodic snapshot. Counter values are cumulative; metric_deltas are
/// the global-registry counter increments since the previous sample.
struct TimelineSample {
  std::uint64_t t_ms = 0;  ///< since sampler start
  std::uint64_t rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  const char* phase = "idle";
  std::array<std::uint64_t, memacct::kCategoryCount> mem_current{};
  std::array<std::uint64_t, memacct::kCategoryCount> mem_peak{};
  bool counters_valid = false;
  PerfCounterValues counters;
  std::map<std::string, std::uint64_t> metric_deltas;
};

/// Per-phase perf totals accumulated by PhaseScope while the sampler (with
/// counters available) is running.
struct PhasePerfTotals {
  std::uint64_t entries = 0;
  PerfCounterValues values;
};

/// Everything the sampler collected, ready for the artifact writer.
struct TimelineSnapshot {
  std::uint32_t interval_ms = 0;
  bool counters_available = false;
  std::vector<TimelineSample> samples;
  std::map<std::string, PhasePerfTotals> phase_perf;  ///< empty if unavailable
};

struct TimelineOptions {
  std::uint32_t interval_ms = 100;
  bool perf_counters = true;  ///< try perf_event_open; fall back silently
};

/// The background sampler. start() spawns the thread (idempotent — a
/// running sampler is left alone), stop() joins it; snapshot() may be
/// called at any time. Samples are bounded (1M) to keep week-long runs from
/// eating the heap; excess ticks are counted, not stored.
class TimelineSampler {
 public:
  void start(const TimelineOptions& options);
  void stop();
  bool running() const;
  TimelineSnapshot snapshot() const;
  std::uint64_t dropped() const;

 private:
  friend class PhaseScope;  ///< per-phase perf attribution
  struct Impl;
  Impl& impl() const;
};

/// Process-wide sampler instance (intentionally leaked, like
/// global_metrics(); safe to stop/snapshot from atexit handlers).
TimelineSampler& global_timeline_sampler();

}  // namespace mmr
