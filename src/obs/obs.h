// Streaming telemetry for million-request simulations
// (docs/OBSERVABILITY.md "Streaming telemetry").
//
// Sample capture (SimParams::capture_samples) stores every response and the
// flight recorder subsamples 1-in-N; both lose the tail once request counts
// explode. This module keeps bounded-memory summaries instead: a response
// and a stretch QuantileSketch, a SpaceSaving hot-set tracker over
// (page, server) request keys weighted by remote miss cost, and a windowed
// SLO aggregator — all exactly mergeable.
//
// Determinism follows the provenance discipline: each simulate call
// produces one ObsShard tagged (run, policy, mode); snapshot() sorts the
// shards canonically and merges per (policy, mode) group, so the
// mmr-sketch artifact bytes are independent of thread count and of the
// order runs finished in. Everything is off by default (the kRecObs bit of
// util/recording.h) and costs nothing when disabled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/provenance.h"
#include "model/entities.h"
#include "obs/heavy_hitters.h"
#include "obs/shard_log.h"
#include "obs/sketch.h"
#include "obs/window.h"
#include "util/recording.h"

namespace mmr {

/// Sets the kRecObs bit; the benchmark driver (perfbench/) calls it.
inline void set_obs_enabled(bool on) {
  set_recording(on ? recording_mask() | kRecObs : recording_mask() & ~kRecObs);
}

// Fixed shape of every shard's summaries; the mmr-sketch header and
// run_meta record them.
inline constexpr double kObsAlpha = 0.01;  ///< sketch relative error
inline constexpr std::uint32_t kObsMaxBuckets = 2048;  ///< per-metric span
inline constexpr std::uint32_t kObsWindowBuckets = 512;  ///< per-window span
inline constexpr std::uint32_t kObsHotCapacity = 64;  ///< heavy hitters

struct ObsConfig {
  double window_s = 60.0;  ///< virtual-time window width [s]
  SloConfig slo;
};

/// Config applied to shards created AFTER the call; set it before enabling.
ObsConfig obs_config();
void set_obs_config(const ObsConfig& config);

/// One simulate call's worth of telemetry, tagged for canonical merging.
struct ObsShard {
  explicit ObsShard(const ObsConfig& config);

  void observe(PageId page, ServerId server, double t, double response_s,
               double stretch_x, double miss_cost_s);
  void merge(const ObsShard& other);
  std::size_t approx_bytes() const;

  std::uint64_t run = 0;    ///< provenance_run_or_zero() at creation
  std::string policy;       ///< current_metric_label() at creation
  FlightMode mode = FlightMode::kStatic;
  std::uint64_t requests = 0;
  QuantileSketch response;
  QuantileSketch stretch;
  SpaceSavingTracker hot;
  WindowedAggregator windows;
};

/// Shard sink (obs/shard_log.h); held bytes are charged to memacct's
/// obs.sketches category.
using ObsLog = ShardLog<ObsShard>;

ObsLog& global_obs_log();

/// Merges every group in `groups` into one summary pair; returns false when
/// there is nothing to merge. Used for the overall gauges and CLI table.
bool merge_obs_groups(const std::vector<ObsShard>& groups,
                      QuantileSketch* response_out,
                      QuantileSketch* stretch_out);

/// Sets the main-thread obs.* gauges (obs.response_p50/p95/p99/p999,
/// obs.stretch_p50/p95/p99/p999, obs.requests) from the global log's merged
/// snapshot. Call from the MAIN thread only, after the measured work, so
/// the gauges land deterministically in metrics/bench artifacts. No-op when
/// the log is empty.
void set_obs_gauges();

}  // namespace mmr
