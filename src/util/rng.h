// Deterministic, splittable pseudo-random number generation.
//
// The library never uses std::rand or unseeded engines: every stochastic
// component takes an explicit Rng (or a seed) so that experiments are exactly
// reproducible and independent streams can be derived for parallel runs.
//
// Implementation: xoshiro256** (Blackman & Vigna) seeded via splitmix64.
// Both are public-domain algorithms reimplemented here.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace mmr {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes two 64-bit values into one; used to derive substream seeds.
constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
    // xoshiro256** requires a nonzero state; splitmix64 of any seed yields
    // all-zero with probability ~2^-256, but guard anyway.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent substream: deterministic in (this stream's next
  /// output, tag). Use to give parallel workers their own generators.
  Rng split(std::uint64_t tag) { return Rng(mix_seed((*this)(), tag)); }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    MMR_DCHECK(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    MMR_DCHECK(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
    return lo + static_cast<std::int64_t>(bounded(range));
  }

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t bounded(std::uint64_t n) {
    MMR_DCHECK(n > 0);
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential variate with the given rate (mean 1/rate). rate > 0.
  double exponential(double rate);

  /// Index drawn from the (unnormalized, nonnegative) weight vector.
  std::size_t discrete(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[bounded(i)]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement
  /// (Floyd's algorithm; order is unspecified but deterministic).
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                        std::uint32_t k);

  /// sample_without_replacement into reusable storage: the same k draws and
  /// the same output, in O(k) and allocation-free once `out` and the calling
  /// thread's membership bitmap (n bits, kept between calls) are warm.
  void sample_into(std::uint32_t n, std::uint32_t k,
                   std::vector<std::uint32_t>* out);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// Precomputed alias table for O(1) sampling from a fixed discrete
/// distribution; used for page-popularity sampling in the simulator where
/// millions of draws are made from the same distribution.
class AliasTable {
 public:
  AliasTable() = default;
  /// Builds from unnormalized nonnegative weights; at least one must be > 0.
  explicit AliasTable(const std::vector<double>& weights);

  std::size_t sample(Rng& rng) const;
  std::size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

  /// Normalized probability of index i (for testing).
  double probability_of(std::size_t i) const;

 private:
  std::vector<double> prob_;        // acceptance probability per bucket
  std::vector<std::uint32_t> alias_;
  std::vector<double> normalized_;  // retained for probability_of()
};

}  // namespace mmr
