// BENCH_<name>.json — the repo's standardized benchmark artifact
// (docs/FORMATS.md "BENCH artifacts"). Every bench harness emits one via
// --bench-out; tools/benchdiff compares two of them; bench/bench_suite
// merges the quick-suite set into BENCH_suite.json, the committed perf
// trajectory the CI perf gate diffs against.
//
// Schema v1 (stable field ordering: measurements sorted by name, meta
// fields sorted by key, fixed key order inside each object):
//
//   {
//     "schema_version": 1,
//     "run_meta": { "tool", "git_describe", "timestamp_utc", <fields...> },
//     "measurements": [
//       { "name": "harness.wall_s", "unit": "s", "direction": "lower",
//         "warmup": 1, "samples": [ ... raw, recording order ... ],
//         "stats": { "count", "discarded", "mean", "stddev", "min",
//                    "p50", "p95", "p99", "max" } }
//     ]
//   }
//
// `stats` is computed from `samples` after discarding the first `warmup`
// samples and rejecting IQR outliers (Tukey fences, k = 1.5): benchmarks are
// noisy, and the trajectory should track the central tendency, not one GC
// pause. Raw samples stay in the file so readers can re-derive anything.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "io/artifacts.h"

namespace mmr {

inline constexpr int kBenchSchemaVersion = 1;

/// Default Tukey fence multiplier for outlier rejection.
inline constexpr double kBenchIqrK = 1.5;

/// Robust summary of one measurement series.
struct BenchStats {
  std::size_t count = 0;      ///< samples kept (post warmup + IQR)
  std::size_t discarded = 0;  ///< warmup + IQR-rejected samples
  double mean = 0;
  double stddev = 0;  ///< unbiased, over kept samples
  double min = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// One named series: raw samples plus the derived robust stats.
struct BenchMeasurement {
  std::string name;
  std::string unit = "s";
  /// Which way is better: "lower" (times, costs), "higher" (throughput),
  /// or "none" (informational — benchdiff never flags it).
  std::string direction = "lower";
  std::size_t warmup = 0;  ///< leading samples excluded from stats
  std::vector<double> samples;
  BenchStats stats;
};

/// A full BENCH_<name>.json document.
struct BenchArtifact {
  int schema_version = kBenchSchemaVersion;
  std::string tool;
  std::string git_describe;
  std::string timestamp_utc;
  /// Extra run_meta fields as (key, raw JSON value), written sorted by key.
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<BenchMeasurement> measurements;

  /// Recomputes every measurement's stats from its samples and sorts the
  /// measurements by name (the canonical on-disk order).
  void finalize(double iqr_k = kBenchIqrK);
  const BenchMeasurement* find(const std::string& name) const;
};

/// Warmup discard + Tukey-fence outlier rejection + summary stats.
/// With fewer than 4 post-warmup samples the IQR step is skipped (quartiles
/// of so few points reject nothing meaningful).
BenchStats compute_bench_stats(const std::vector<double>& samples,
                               std::size_t warmup, double iqr_k = kBenchIqrK);

void write_bench_json(std::ostream& os, const BenchArtifact& artifact);
void write_bench_file(const std::string& path, const BenchArtifact& artifact);

/// Inverse of write_bench_json; validates schema_version. Throws CheckError
/// on malformed input.
BenchArtifact parse_bench_json(const std::string& text);
BenchArtifact read_bench_file(const std::string& path);

/// Process-wide sample sink the bench harnesses record into; the artifact is
/// assembled at exit (bench/bench_common.h, bench/micro_common.h).
class BenchCollector {
 public:
  /// Appends one sample, creating the series on first use. unit/direction
  /// are fixed by the first record for a given name.
  void record(const std::string& name, const std::string& unit, double value,
              const std::string& direction = "lower");
  bool empty() const { return measurements_.empty(); }
  std::size_t series_count() const { return measurements_.size(); }
  void clear() { measurements_.clear(); }

  /// Builds the artifact: stamps tool/git/timestamp, copies meta fields from
  /// `meta`, applies `warmup` to every series, computes stats, sorts.
  BenchArtifact build(const std::string& tool, const RunMeta& meta,
                      std::size_t warmup) const;

 private:
  std::vector<BenchMeasurement> measurements_;  ///< recording order
};

/// The collector bench harnesses share (one per process, like the global
/// metrics registry; intentionally leaked for atexit writers).
BenchCollector& bench_collector();

/// Records one repetition's gauge values into `out`:
///   gauge.<name> — the gauge's `last` value                   [1, lower]
/// This is how quality metrics (final D, the obs response/stretch quantile
/// gauges) flow from the metrics registry into BENCH artifacts.
void record_gauge_series(BenchCollector& out, const MetricsSnapshot& cur);

}  // namespace mmr
