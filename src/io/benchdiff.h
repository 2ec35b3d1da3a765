// Noise-aware comparison of two BENCH artifacts (the engine behind
// tools/benchdiff and the CI perf gate).
//
// A series is flagged only when the mean delta exceeds
//   max(rel_threshold * |baseline mean|,
//       stddev_k * max(baseline stddev, candidate stddev),
//       min_abs)
// so a 3% wobble on a 2 ms timer with 10% run-to-run noise never pages
// anyone, while a genuine 30% regression on a stable series does. The
// series' `direction` decides whether an exceeding delta is a regression or
// an improvement; "none" series are reported but never flagged. A selected
// baseline series the candidate lacks fails the gate too: a renamed or
// dropped series must not silently switch a gate off.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "io/benchfmt.h"

namespace mmr {

struct BenchDiffOptions {
  double rel_threshold = 0.05;  ///< fraction of |baseline mean|
  double stddev_k = 3.0;        ///< multiples of the noisier stddev
  double min_abs = 0.0;         ///< absolute floor, in the series' unit
  /// Series whose name contains ANY of these substrings are compared
  /// (empty = all). Repeated --filter flags accumulate here, so one CI
  /// invocation can gate wall_s AND peak_rss_bytes.
  std::vector<std::string> filters;
  /// Relative threshold applied instead of rel_threshold to byte-unit
  /// ("B") series. RSS is noisier than wall time (allocator reuse, page
  /// cache), so memory gates typically want a looser bound. Negative
  /// (default) means "use rel_threshold".
  double mem_rel_threshold = -1.0;
  /// Relative threshold applied instead of rel_threshold to tail series —
  /// any series whose name contains "p99" (which also matches p999).
  /// Sketch-derived tails are deterministic per seed but move more than
  /// means when the workload shifts, so the tail gate usually wants its
  /// own bound. Negative (default) means "use rel_threshold".
  double tail_rel_threshold = -1.0;
  /// Relative threshold applied only to deltas in a series' bad direction
  /// (--regress-rel). Makes a gate direction-aware: a throughput series can
  /// improve arbitrarily far past the symmetric bound (still reported as an
  /// improvement), while a slowdown is judged against this tighter bound.
  /// Only ever tightens — series whose rel/mem/tail bound is already
  /// stricter keep it (per-prefix --rel-for overrides still beat every
  /// other bound). Series with direction "none" are unaffected.
  /// Negative (default) means "symmetric: use the same bound both ways".
  double regress_rel_threshold = -1.0;
  /// Per-prefix relative-threshold overrides (--rel-for=PREFIX:REL). A
  /// series whose name starts with PREFIX uses REL instead of every other
  /// relative bound (rel/mem/tail); the longest matching prefix wins, so a
  /// broad "scale." override and a tighter "scale.small." one compose. The
  /// scale gate uses this: the small tier's sub-second solve needs a looser
  /// relative bound than the large tier's minutes-scale one.
  std::vector<std::pair<std::string, double>> rel_overrides;
};

enum class SeriesVerdict {
  kPass,         ///< delta within noise
  kImprovement,  ///< delta exceeds threshold in the good direction
  kRegression,   ///< delta exceeds threshold in the bad direction
  kNew,          ///< series only in the candidate (passes)
  kMissing,      ///< series only in the baseline (fails the gate)
};

const char* to_string(SeriesVerdict v);

struct SeriesDiff {
  std::string name;
  std::string unit;
  std::string direction;
  double base_mean = 0;
  double cand_mean = 0;
  double base_stddev = 0;
  double cand_stddev = 0;
  double delta = 0;      ///< cand_mean - base_mean
  double rel_delta = 0;  ///< delta / |base_mean|; 0 when base_mean == 0
  double threshold = 0;  ///< the |delta| bound that was applied
  SeriesVerdict verdict = SeriesVerdict::kPass;
};

struct BenchDiffReport {
  std::vector<SeriesDiff> series;  ///< sorted by name
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t passes = 0;
  std::size_t unmatched = 0;  ///< kNew + kMissing
  std::size_t missing = 0;    ///< kMissing alone

  bool ok() const { return regressions == 0 && missing == 0; }
  /// "pass", else "regression" when any series regressed, else "missing".
  const char* verdict() const;
};

BenchDiffReport diff_bench_artifacts(const BenchArtifact& baseline,
                                     const BenchArtifact& candidate,
                                     const BenchDiffOptions& options);

/// Human-readable comparison table plus the summary line below.
void write_benchdiff_table(std::ostream& os, const BenchDiffReport& report);

/// One line: the verdict in capitals, then the per-verdict series counts.
void write_benchdiff_summary(std::ostream& os, const BenchDiffReport& report);

/// Machine-readable verdict document:
///   { "verdict": "pass"|"regression"|"missing", "thresholds": {...},
///     "regressions": n, "improvements": n, "passes": n, "unmatched": n,
///     "missing": n,
///     "series": [ {name, unit, direction, base_mean, cand_mean, delta,
///                  rel_delta, threshold, verdict} ] }
void write_benchdiff_json(std::ostream& os, const BenchDiffReport& report,
                          const BenchDiffOptions& options);

}  // namespace mmr
