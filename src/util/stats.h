// Streaming statistics, quantiles and confidence intervals used by the
// experiment harness to aggregate multi-seed simulation runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mmr {

/// Welford streaming accumulator: mean/variance/min/max in O(1) memory.
class RunningStats {
 public:
  void add(double x);
  /// Merges another accumulator (parallel reduction), as if all of `other`'s
  /// samples had been added to *this.
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(count_); }
  /// Standard error of the mean; 0 for fewer than two samples.
  double stderr_mean() const;
  /// Half-width of the ~95% normal-approximation confidence interval.
  double ci95_halfwidth() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Stores all samples; supports exact quantiles. Used where sample counts are
/// modest (per-experiment aggregates), not per-request streams.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Linear-interpolation quantile, q in [0, 1]. Requires non-empty set.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge buckets. Renders response-time distributions as ASCII bar charts;
/// quantiles come from SampleSet or the obs QuantileSketch instead.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  /// Renders a compact ASCII bar chart, one line per bucket.
  std::string ascii(std::size_t max_width = 50) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
};

/// Linear-interpolation quantile over an ascending-sorted, non-empty sample
/// vector, q in [0, 1]. The array backing SampleSet::quantile, exposed for
/// callers that already hold sorted data (bench stats, benchdiff).
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Relative difference (a - b) / b, guarded against b == 0.
double relative_increase(double a, double b);

}  // namespace mmr
