#include "util/rng.h"

#include <cmath>

namespace mmr {

double Rng::exponential(double rate) {
  MMR_CHECK_MSG(rate > 0, "exponential() requires rate > 0, got " << rate);
  // 1 - uniform() is in (0, 1], so the log argument is never zero.
  return -std::log(1.0 - uniform()) / rate;
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  MMR_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    MMR_CHECK_MSG(w >= 0, "discrete() weights must be nonnegative");
    total += w;
  }
  MMR_CHECK_MSG(total > 0, "discrete() needs at least one positive weight");
  double r = uniform(0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  // Floating-point slack: return the last positive-weight index.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0) return i - 1;
  }
  return weights.size() - 1;
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  std::vector<std::uint32_t> result;
  sample_into(n, k, &result);
  return result;
}

void Rng::sample_into(std::uint32_t n, std::uint32_t k,
                      std::vector<std::uint32_t>* out) {
  MMR_CHECK_MSG(k <= n, "cannot sample " << k << " distinct from " << n);
  // Floyd's algorithm. Its output depends only on the answers to "was t
  // drawn already?", so any exact membership test yields the same sample; a
  // bitmap over [0, n) answers in O(1). Only the drawn bits are cleared
  // afterwards, so a call costs O(k) however large n is.
  thread_local std::vector<std::uint64_t> drawn;
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  if (drawn.size() < words) drawn.resize(words, 0);
  out->clear();
  out->reserve(k);
  for (std::uint32_t j = n - k; j < n; ++j) {
    const auto t =
        static_cast<std::uint32_t>(bounded(static_cast<std::uint64_t>(j) + 1));
    const std::uint32_t v = (drawn[t >> 6] >> (t & 63)) & 1 ? j : t;
    drawn[v >> 6] |= std::uint64_t{1} << (v & 63);
    out->push_back(v);
  }
  for (const std::uint32_t v : *out) {
    drawn[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  }
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  MMR_CHECK(!weights.empty());
  const std::size_t n = weights.size();
  double total = 0;
  for (double w : weights) {
    MMR_CHECK_MSG(w >= 0, "AliasTable weights must be nonnegative");
    total += w;
  }
  MMR_CHECK_MSG(total > 0, "AliasTable needs a positive total weight");

  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  // Vose's alias method.
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = normalized_[i] * static_cast<double>(n);

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;  // numeric residue
}

std::size_t AliasTable::sample(Rng& rng) const {
  MMR_DCHECK(!prob_.empty());
  const std::size_t bucket = rng.bounded(prob_.size());
  return rng.uniform() < prob_[bucket] ? bucket : alias_[bucket];
}

double AliasTable::probability_of(std::size_t i) const {
  MMR_CHECK(i < normalized_.size());
  return normalized_[i];
}

}  // namespace mmr
