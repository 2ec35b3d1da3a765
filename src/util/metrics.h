// Process-wide metrics substrate for the solver, simulator and experiment
// harness (docs/OBSERVABILITY.md has the metric catalog).
//
// Two instrument kinds live in a MetricsRegistry:
//   counters — monotonically increasing uint64 (relaxed atomics),
//   gauges   — observed value series (last + RunningStats aggregate).
// Response-time distributions are not registry instruments: the obs
// QuantileSketch records them per (policy, mode) group (obs/obs.h). Phase
// wall times are not either: they are the PhaseScope trace spans
// (util/telemetry.h).
//
// Registries support merge() as an associative parallel reduction, mirroring
// RunningStats::merge: the runner's per-seed workers each install a private
// registry with MetricsScope and merge it into the parent when done, so
// aggregate values never depend on thread count or scheduling.
//
// Collection is the kRecMetrics bit of the recording mask (util/recording.h,
// on by default). Hot loops acquire handles once and increment through
// them (sim/request_recorder.h); phase-level code uses the macros, which
// no-op when the bit is off:
//
//   MMR_COUNT("solver.offload.swaps", 1);
//   MMR_GAUGE("solver.d_after_offload", d);
//
// Instrumentation never draws from any RNG stream, so enabling or disabling
// metrics cannot change simulation results (guarded by test_runner).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "util/recording.h"
#include "util/stats.h"

namespace mmr {

/// Monotonic counter; increments are relaxed atomics (merge provides the
/// synchronization point).
class MetricCounter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Aggregated gauge stats as exported to JSON.
struct GaugeStat {
  std::size_t count = 0;
  double last = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
};

/// Observed-value gauge. set() records an observation; aggregation keeps the
/// full RunningStats so merge() is associative. Mutex-guarded — gauges are
/// phase-level instruments, not per-request ones.
class MetricGauge {
 public:
  void set(double v);
  GaugeStat stat() const;
  void merge_from(const MetricGauge& other);
  void reset();

 private:
  mutable std::mutex mutex_;
  double last_ = 0;
  RunningStats stats_;
};

/// Plain-data snapshot of a registry, ready for export or comparison.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeStat> gauges;

  bool empty() const { return counters.empty() && gauges.empty(); }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Handle accessors: create-on-first-use, stable references for the
  /// registry's lifetime (values are never erased, only reset()).
  MetricCounter& counter(const std::string& name);
  MetricGauge& gauge(const std::string& name);

  /// Folds `other` into *this, as if every observation had been recorded
  /// here. Associative and commutative (up to gauge `last`, which is
  /// excluded from aggregate semantics).
  void merge(const MetricsRegistry& other);

  /// Zeroes every instrument in place. Handles stay valid — instruments are
  /// never erased, so hot-path pointers survive a reset.
  void reset();
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;  // guards map shape, not instrument updates
  std::map<std::string, MetricCounter> counters_;
  std::map<std::string, MetricGauge> gauges_;
};

/// Process-wide default registry (intentionally leaked: safe to use from
/// atexit handlers and thread_local destructors).
MetricsRegistry& global_metrics();

/// The registry instrumentation writes to: the innermost MetricsScope on
/// this thread, else the global registry.
MetricsRegistry& current_metrics();

/// RAII thread-local registry override. Pass nullptr for a no-op scope.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry* registry);
  ~MetricsScope();
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricsRegistry* prev_;
  bool installed_;
};

/// Thread-local policy label ("ours", "lru", ...). The obs, flight, audit
/// and DES shards read it to tag their records. Empty by default.
const std::string& current_metric_label();

class MetricLabelScope {
 public:
  explicit MetricLabelScope(std::string label);
  ~MetricLabelScope();
  MetricLabelScope(const MetricLabelScope&) = delete;
  MetricLabelScope& operator=(const MetricLabelScope&) = delete;

 private:
  std::string prev_;
};

/// Monotonic nanosecond clock shared by the tracer and the telemetry
/// sampler.
std::uint64_t monotonic_now_ns();

#define MMR_COUNT(name, n)                                  \
  do {                                                      \
    if (::mmr::recording(::mmr::kRecMetrics))               \
      ::mmr::current_metrics().counter(name).add(           \
          static_cast<std::uint64_t>(n));                   \
  } while (0)

#define MMR_GAUGE(name, v)                                  \
  do {                                                      \
    if (::mmr::recording(::mmr::kRecMetrics))               \
      ::mmr::current_metrics().gauge(name).set(             \
          static_cast<double>(v));                          \
  } while (0)

}  // namespace mmr
