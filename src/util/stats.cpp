#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace mmr {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  MMR_CHECK(count_ > 0);
  return min_;
}

double RunningStats::max() const {
  MMR_CHECK(count_ > 0);
  return max_;
}

double RunningStats::stderr_mean() const {
  return count_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStats::ci95_halfwidth() const { return 1.96 * stderr_mean(); }

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  MMR_CHECK(!samples_.empty());
  double s = 0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0;
  for (double x : samples_) m2 += (x - m) * (x - m);
  return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  ensure_sorted();
  MMR_CHECK(!samples_.empty());
  return samples_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  MMR_CHECK(!samples_.empty());
  return samples_.back();
}

double SampleSet::quantile(double q) const {
  ensure_sorted();
  return quantile_sorted(samples_, q);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  MMR_CHECK(!sorted.empty());
  MMR_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of range: " << q);
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi) {
  MMR_CHECK_MSG(hi > lo, "Histogram range must be nonempty");
  MMR_CHECK_MSG(buckets > 0, "Histogram needs at least one bucket");
  width_ = (hi - lo) / static_cast<double>(buckets);
  counts_.assign(buckets, 0);
}

void Histogram::add(double x) {
  std::size_t i;
  if (x < lo_) {
    i = 0;
  } else if (x >= hi_) {
    i = counts_.size() - 1;
  } else {
    i = static_cast<std::size_t>((x - lo_) / width_);
    i = std::min(i, counts_.size() - 1);
  }
  ++counts_[i];
}

std::string Histogram::ascii(std::size_t max_width) const {
  std::uint64_t peak = 0;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar =
        peak == 0 ? 0
                  : static_cast<std::size_t>(
                        static_cast<double>(counts_[i]) /
                        static_cast<double>(peak) *
                        static_cast<double>(max_width));
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%8.2f,%8.2f) %8llu ",
                  lo_ + width_ * static_cast<double>(i),
                  lo_ + width_ * static_cast<double>(i + 1),
                  static_cast<unsigned long long>(counts_[i]));
    os << buf << std::string(bar, '#') << '\n';
  }
  return os.str();
}

double relative_increase(double a, double b) {
  MMR_CHECK_MSG(b != 0.0, "relative_increase baseline is zero");
  return (a - b) / b;
}

}  // namespace mmr
