// Delta evaluators must agree exactly with apply-and-recompute.
#include "core/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/partition.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mmr {
namespace {

constexpr Weights kW{2.0, 1.0};

double total(const Assignment& asg) {
  return objective_total_cached(asg, kW);
}

TEST(Delta, UnmarkCompMatchesRecompute) {
  const SystemModel sys = testing::tiny_system();
  Assignment asg(sys);
  partition_page(sys, asg, 0);
  ASSERT_TRUE(asg.comp_local(0, 0));

  const double predicted = unmark_comp_delta(asg, 0, 0, kW);
  const double before = total(asg);
  asg.set_comp_local(0, 0, false);
  EXPECT_NEAR(total(asg) - before, predicted, 1e-9);
}

TEST(Delta, MarkCompMatchesRecompute) {
  const SystemModel sys = testing::tiny_system();
  Assignment asg(sys);  // all remote
  const double predicted = mark_comp_delta(asg, 0, 1, kW);
  const double before = total(asg);
  asg.set_comp_local(0, 1, true);
  EXPECT_NEAR(total(asg) - before, predicted, 1e-9);
}

TEST(Delta, OptionalFlipsMatchRecompute) {
  const SystemModel sys = testing::tiny_system();
  Assignment asg(sys);
  const double mark_predicted = mark_opt_delta(asg, 0, 0, kW);
  double before = total(asg);
  asg.set_opt_local(0, 0, true);
  EXPECT_NEAR(total(asg) - before, mark_predicted, 1e-9);

  const double unmark_predicted = unmark_opt_delta(asg, 0, 0, kW);
  before = total(asg);
  asg.set_opt_local(0, 0, false);
  EXPECT_NEAR(total(asg) - before, unmark_predicted, 1e-9);
  // Mark/unmark must be exact negatives.
  EXPECT_NEAR(mark_predicted, -unmark_predicted, 1e-12);
}

TEST(Delta, DeallocMatchesBulkUnmark) {
  const SystemModel sys = testing::two_server_system();
  Assignment asg(sys);
  for (PageId j = 0; j < sys.num_pages(); ++j) partition_page(sys, asg, j);

  // Object 3 ("shared") has marks from pages 0 and 1 on server 0.
  const ObjectId shared = 3;
  ASSERT_TRUE(asg.object_stored(0, shared));
  const double predicted =
      dealloc_delta(sys, asg, 0, sys.object_rank_on_server(0, shared), kW);
  const double before = total(asg);
  for (const PageObjectRef& ref : sys.object_refs_on_server(0, shared)) {
    if (asg.ref_local(ref)) asg.set_ref_local(ref, false);
  }
  EXPECT_NEAR(total(asg) - before, predicted, 1e-9);
  EXPECT_FALSE(asg.object_stored(0, shared));
}

TEST(Delta, DeallocOfUnstoredObjectIsZero) {
  const SystemModel sys = testing::two_server_system();
  const Assignment asg(sys);  // nothing stored
  EXPECT_DOUBLE_EQ(
      dealloc_delta(sys, asg, 0, sys.object_rank_on_server(0, 0), kW), 0.0);
}

TEST(Delta, SlotWorkloads) {
  const SystemModel sys = testing::tiny_system();
  // Compulsory slot: workload = f = 2.
  EXPECT_DOUBLE_EQ(slot_workload(sys, {0, true, 0}), 2.0);
  EXPECT_DOUBLE_EQ(slot_repo_workload(sys, {0, true, 0}), 2.0);
  // Optional slot: Eq. 8 uses f*scale*prob, Eq. 9 uses f*prob.
  EXPECT_DOUBLE_EQ(slot_workload(sys, {0, false, 0}), 2.0 * 1.0 * 0.25);
  EXPECT_DOUBLE_EQ(slot_repo_workload(sys, {0, false, 0}), 2.0 * 0.25);
}

TEST(Delta, SlotWorkloadsDifferWithOptionalScale) {
  SystemModel sys;
  Server s;
  s.local_rate = 100;
  s.repo_rate = 10;
  sys.add_server(s);
  const ObjectId k = sys.add_object({100});
  Page p;
  p.host = 0;
  p.html_bytes = 10;
  p.frequency = 4.0;
  p.optional_scale = 0.5;
  p.optional = {{k, 0.3}};
  sys.add_page(std::move(p));
  sys.finalize();
  EXPECT_DOUBLE_EQ(slot_workload(sys, {0, false, 0}), 4.0 * 0.5 * 0.3);
  EXPECT_DOUBLE_EQ(slot_repo_workload(sys, {0, false, 0}), 4.0 * 0.3);
}

// The evaluators read the model's per-slot transfer-time caches. After a
// server's rates change through mutable_server() and the caches are
// refreshed, every delta must match a from-scratch objective difference at
// the new rates.
TEST(Delta, MatchFromScratchAfterRateChange) {
  SystemModel sys = generate_workload(testing::small_params(), 44);
  Server& s = sys.mutable_server(0);
  s.local_rate *= 3.0;
  s.repo_rate *= 0.5;
  s.ovhd_local += 0.25;
  s.ovhd_repo *= 2.0;
  sys.refresh_network_caches();

  Assignment asg(sys);
  Rng rng(44);
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    if (rng.bernoulli(0.5)) partition_page(sys, asg, j);
  }
  const double before = objective_total(sys, asg, kW);
  const double tolerance = 1e-9 * std::max(1.0, std::abs(before));
  auto from_scratch_diff = [&](const Assignment& after) {
    return objective_total(sys, after, kW) - before;
  };

  for (PageId j : sys.pages_on_server(0)) {
    const Page& p = sys.page(j);
    for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
      const bool local = asg.comp_local(j, idx);
      const double predicted = local ? unmark_comp_delta(asg, j, idx, kW)
                                     : mark_comp_delta(asg, j, idx, kW);
      Assignment after = asg;
      after.set_comp_local(j, idx, !local);
      ASSERT_NEAR(from_scratch_diff(after), predicted, tolerance)
          << "page " << j << " compulsory slot " << idx;
    }
    for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
      const bool local = asg.opt_local(j, idx);
      const double predicted = local ? unmark_opt_delta(asg, j, idx, kW)
                                     : mark_opt_delta(asg, j, idx, kW);
      Assignment after = asg;
      after.set_opt_local(j, idx, !local);
      ASSERT_NEAR(from_scratch_diff(after), predicted, tolerance)
          << "page " << j << " optional slot " << idx;
    }
  }

  std::uint32_t stored = 0;
  for (std::uint32_t rank = 0; rank < sys.num_referenced(0); ++rank) {
    if (!asg.stored_at(0, rank)) continue;
    ++stored;
    Assignment after = asg;
    for (const PageObjectRef& ref : sys.refs_at_rank(0, rank)) {
      after.set_ref_local(ref, false);
    }
    ASSERT_NEAR(from_scratch_diff(after), dealloc_delta(sys, asg, 0, rank, kW),
                tolerance)
        << "rank " << rank;
  }
  EXPECT_GT(stored, 0u);
}

// Randomized agreement sweep across a generated workload.
class DeltaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaProperty, PredictionsMatchApplications) {
  const SystemModel sys = generate_workload(testing::small_params(),
                                            GetParam());
  Assignment asg(sys);
  Rng rng(GetParam() * 31 + 7);
  // Random starting point.
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    if (rng.bernoulli(0.5)) partition_page(sys, asg, j);
  }
  for (int step = 0; step < 300; ++step) {
    const PageId j = static_cast<PageId>(rng.bounded(sys.num_pages()));
    const Page& p = sys.page(j);
    const bool use_comp = !p.compulsory.empty() &&
                          (p.optional.empty() || rng.bernoulli(0.8));
    double predicted;
    PageObjectRef ref{j, use_comp, 0};
    if (use_comp) {
      ref.index = static_cast<std::uint32_t>(rng.bounded(p.compulsory.size()));
      predicted = asg.comp_local(j, ref.index)
                      ? unmark_comp_delta(asg, j, ref.index, kW)
                      : mark_comp_delta(asg, j, ref.index, kW);
    } else {
      ref.index = static_cast<std::uint32_t>(rng.bounded(p.optional.size()));
      predicted = asg.opt_local(j, ref.index)
                      ? unmark_opt_delta(asg, j, ref.index, kW)
                      : mark_opt_delta(asg, j, ref.index, kW);
    }
    const double before = total(asg);
    asg.set_ref_local(ref, !asg.ref_local(ref));
    ASSERT_NEAR(total(asg) - before, predicted, 1e-6) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaProperty, ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace mmr
