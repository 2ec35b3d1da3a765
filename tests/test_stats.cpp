#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace mmr {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_THROW(s.min(), CheckError);
  EXPECT_THROW(s.max(), CheckError);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, Ci95Halfwidth) {
  RunningStats s;
  for (int i = 0; i < 100; ++i) s.add(i % 2 ? 1.0 : -1.0);
  // stddev ~= 1.005, stderr ~= 0.1005, CI ~= 0.197
  EXPECT_NEAR(s.ci95_halfwidth(), 1.96 * s.stddev() / 10.0, 1e-12);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 20.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.125), 15.0);  // interpolated
}

TEST(SampleSet, SingleElement) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.3), 7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SampleSet, RejectsBadQuantiles) {
  SampleSet s;
  EXPECT_THROW(s.quantile(0.5), CheckError);  // empty
  s.add(1.0);
  EXPECT_THROW(s.quantile(-0.1), CheckError);
  EXPECT_THROW(s.quantile(1.1), CheckError);
}

TEST(SampleSet, AddAfterQuantileKeepsConsistency) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(5.0);  // invalidates sort
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps to bucket 0
  h.add(0.5);
  h.add(3.0);
  h.add(9.99);
  h.add(15.0);   // clamps to last bucket
  // One "[low, high) count bar" line per bucket; bars scale to the peak.
  EXPECT_EQ(h.ascii(10),
            "[    0.00,    2.00)        2 ##########\n"
            "[    2.00,    4.00)        1 #####\n"
            "[    4.00,    6.00)        0 \n"
            "[    6.00,    8.00)        0 \n"
            "[    8.00,   10.00)        2 ##########\n");
}

TEST(Histogram, AsciiRendering) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 2);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), CheckError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), CheckError);
}

TEST(QuantileSorted, EdgeCases) {
  EXPECT_THROW(quantile_sorted({}, 0.5), CheckError);
  EXPECT_DOUBLE_EQ(quantile_sorted({4.0}, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted({4.0}, 1.0), 4.0);
  const std::vector<double> equal(17, 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(equal, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(equal, 0.37), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(equal, 1.0), 2.5);
  EXPECT_THROW(quantile_sorted({1.0, 2.0}, -0.01), CheckError);
  EXPECT_THROW(quantile_sorted({1.0, 2.0}, 1.01), CheckError);
}

TEST(RelativeIncrease, Basics) {
  EXPECT_DOUBLE_EQ(relative_increase(150.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(relative_increase(80.0, 100.0), -0.2);
  EXPECT_THROW(relative_increase(1.0, 0.0), CheckError);
}

}  // namespace
}  // namespace mmr
