// Windowed time-series aggregation and SLO evaluation.
//
// Requests are bucketed into fixed-width virtual-time windows; each window
// cell holds a small response-time sketch plus good/total counters, where
// "good" means the request met BOTH thresholds of the SLO (absolute
// response time and stretch relative to the unloaded ideal). The evaluator
// turns the cells into per-window attainment, the per-window p99
// trajectory, and multi-window burn rates in the style of SRE error-budget
// alerts: burn = (1 - attainment) / (1 - target), so burn 1.0 consumes the
// budget exactly at the sustainable rate and burn 10 means the window is
// failing ten times faster than the SLO allows.
//
// The cells live in a WindowedCells container (obs/windowed_cells.h) with
// no cell cap: SLO windows never coarsen, so every window keeps the
// configured width and worst_burn_6 always spans six of them. Cells merge
// exactly (sketch merge + counter adds), so per-shard aggregators combined
// in canonical order are byte-identical to a sequential run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/sketch.h"
#include "obs/windowed_cells.h"

namespace mmr {

struct SloConfig {
  double response_s = 2.0;  ///< absolute download-time threshold [s]
  double stretch_x = 1.5;   ///< max response / unloaded-ideal ratio
  double target = 0.99;     ///< attainment target in [0, 1)
};

/// Parses "RESP_S,STRETCH_X,TARGET" (e.g. "2.0,1.5,0.99"); ':' is also
/// accepted as a separator. Throws CheckError on malformed input.
SloConfig parse_slo_spec(const std::string& spec);

struct WindowCell {
  WindowCell(double alpha, std::uint32_t sketch_buckets)
      : response(alpha, sketch_buckets) {}

  /// Folds `c` in: the sketches merge exactly and the counters add.
  void add(const WindowCell& c) {
    response.merge(c.response);
    good += c.good;
    total += c.total;
  }
  std::size_t approx_bytes() const { return response.approx_bytes(); }

  QuantileSketch response;
  std::uint64_t good = 0;
  std::uint64_t total = 0;
};

struct SloWindowRow {
  std::uint64_t index = 0;   ///< window number (t / width)
  double t_start_s = 0.0;
  std::uint64_t total = 0;
  std::uint64_t good = 0;
  double attainment = 1.0;
  double burn = 0.0;
  double p99_s = 0.0;
};

struct SloReport {
  std::vector<SloWindowRow> windows;  ///< ascending index, occupied only
  std::uint64_t total = 0;
  std::uint64_t good = 0;
  double attainment = 1.0;
  double worst_burn_1 = 0.0;  ///< worst single-window burn rate
  double worst_burn_6 = 0.0;  ///< worst burn over any 6 consecutive windows
};

class WindowedAggregator {
 public:
  WindowedAggregator(double window_s, SloConfig slo, double alpha = 0.01,
                     std::uint32_t sketch_buckets = 512);

  /// Counts one request. `response_index` is the response's log-bucket
  /// index, precomputed by a caller whose sketch shares this aggregator's
  /// alpha (see QuantileSketch::add_indexed).
  void observe(double t, double response_s, std::int32_t response_index,
               double stretch_x);

  /// Exact merge; requires identical (window_s, slo, sketch resolution).
  void merge(const WindowedAggregator& other);

  SloReport evaluate() const;

  double window_s() const { return cells_.window_s(); }
  const SloConfig& slo() const { return slo_; }
  std::uint64_t total() const { return total_; }

  std::size_t approx_bytes() const;

 private:
  SloConfig slo_;
  std::uint64_t total_ = 0;
  WindowedCells<WindowCell> cells_;
};

}  // namespace mmr
