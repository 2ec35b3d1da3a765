#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace mmr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(77);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(8);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, BoundedIsUnbiasedEnough) {
  Rng rng(9);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.bounded(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(10);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(12);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), CheckError);
  EXPECT_THROW(rng.exponential(-1.0), CheckError);
}

TEST(Rng, DiscreteFollowsWeights) {
  Rng rng(14);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.02);
}

TEST(Rng, DiscreteRejectsBadWeights) {
  Rng rng(15);
  std::vector<double> empty;
  EXPECT_THROW(rng.discrete(empty), CheckError);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.discrete(zeros), CheckError);
  std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.discrete(negative), CheckError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> original = v;
  rng.shuffle(v);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), original.begin()));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_without_replacement(100, 20);
    ASSERT_EQ(sample.size(), 20u);
    std::set<std::uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (auto x : sample) EXPECT_LT(x, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(18);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(19);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckError);
}

// Recorded before Floyd's membership test moved from a linear scan onto a
// bitmap: the answers, and so every sample, must not change.
TEST(Rng, SampleWithoutReplacementPinnedSequences) {
  struct Case {
    std::uint32_t n, k;
    std::uint64_t hash;
  };
  const Case cases[] = {{1, 1, 0xcec111e2477e7146u},
                        {10, 10, 0x62e40d18fcdf36f1u},
                        {100, 20, 0x67e5a3066fae04b6u},
                        {15000, 4500, 0xb656a7feb9068907u},
                        {600000, 3000, 0x6ce4939e774554c9u}};
  for (const Case& c : cases) {
    Rng rng(c.n * 31 + c.k);
    const auto sample = rng.sample_without_replacement(c.n, c.k);
    ASSERT_EQ(sample.size(), c.k);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t v : sample) {
      h ^= v;
      h *= 0x100000001b3ULL;
    }
    h ^= rng();  // the engine state after the draws
    EXPECT_EQ(h, c.hash) << "n=" << c.n << " k=" << c.k << " got 0x"
                         << std::hex << h;
  }
}

TEST(Rng, SampleIntoMatchesSampleWithoutReplacement) {
  struct Case {
    std::uint32_t n, k;
  };
  const Case cases[] = {{1, 1},         {10, 10}, {100, 20}, {15000, 4500},
                        {600000, 3000}, {7, 0},   {64, 63},  {65, 64}};
  std::vector<std::uint32_t> out = {99, 98};  // stale contents are replaced
  for (const Case& c : cases) {
    Rng a(c.n + c.k), b(c.n + c.k);
    const auto expected = a.sample_without_replacement(c.n, c.k);
    b.sample_into(c.n, c.k, &out);
    EXPECT_EQ(out, expected) << "n=" << c.n << " k=" << c.k;
    EXPECT_EQ(a(), b()) << "engine state differs, n=" << c.n;
  }
  Rng rng(20);
  EXPECT_THROW(rng.sample_into(3, 4, &out), CheckError);
}

TEST(Rng, SampleIntoLeavesNoMembershipBehind) {
  // Back-to-back samples of a small universe must each be complete
  // permutations: a bit left set by one call would corrupt the next.
  Rng rng(21);
  std::vector<std::uint32_t> out;
  for (int trial = 0; trial < 100; ++trial) {
    rng.sample_into(70, 70, &out);
    std::set<std::uint32_t> unique(out.begin(), out.end());
    ASSERT_EQ(unique.size(), 70u);
    EXPECT_EQ(*unique.rbegin(), 69u);
  }
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(42);
  Rng child1 = parent.split(1);
  Rng parent2(42);
  Rng child2 = parent2.split(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1(), child2());

  Rng parent3(42);
  Rng other = parent3.split(2);
  int equal = 0;
  Rng child3 = Rng(42).split(1);
  for (int i = 0; i < 100; ++i) {
    if (child3() == other()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(AliasTable, MatchesWeights) {
  std::vector<double> weights = {2.0, 0.0, 1.0, 1.0};
  AliasTable table(weights);
  EXPECT_DOUBLE_EQ(table.probability_of(0), 0.5);
  EXPECT_DOUBLE_EQ(table.probability_of(1), 0.0);

  Rng rng(21);
  std::vector<int> counts(4, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[table.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.25, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.25, 0.01);
}

TEST(AliasTable, SingleBucket) {
  AliasTable table(std::vector<double>{3.0});
  Rng rng(22);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, RejectsInvalidWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), CheckError);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), CheckError);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -0.5}), CheckError);
}

TEST(Splitmix, MixSeedIsDeterministicAndSpreads) {
  EXPECT_EQ(mix_seed(1, 2), mix_seed(1, 2));
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_NE(mix_seed(0, 0), 0u);
}

}  // namespace
}  // namespace mmr
