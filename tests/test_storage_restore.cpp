#include "core/storage_restore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>

#include "core/partition.h"
#include "model/cost.h"
#include "model/shard.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/scale.h"

namespace mmr {
namespace {

constexpr Weights kW{2.0, 1.0};

TEST(StorageRestore, NoopWhenWithinCapacity) {
  const SystemModel sys = testing::tiny_system(
      /*proc_capacity=*/kUnlimited, /*storage=*/10 * testing::kKB);
  Assignment asg(sys);
  partition_all(sys, asg);
  const double before = objective_total_cached(asg, kW);
  const auto report = restore_storage(sys, asg, kW);
  EXPECT_EQ(report.deallocations, 0u);
  EXPECT_TRUE(report.feasible());
  EXPECT_DOUBLE_EQ(objective_total_cached(asg, kW), before);
}

TEST(StorageRestore, DeallocatesUntilFits) {
  // Storage only fits the HTML (200 B) plus one object.
  const SystemModel sys =
      testing::tiny_system(kUnlimited, /*storage=*/200 + 550);
  Assignment asg(sys);
  partition_all(sys, asg);  // wants M0+M1+M2 stored (1200 B)
  ASSERT_GT(asg.storage_used(0), sys.server(0).storage_capacity);

  const auto report = restore_storage(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  EXPECT_LE(asg.storage_used(0), sys.server(0).storage_capacity);
  EXPECT_GE(report.deallocations, 2u);
  EXPECT_TRUE(audit_constraints(sys, asg).ok());
}

TEST(StorageRestore, InfeasibleWhenHtmlAloneExceeds) {
  const SystemModel sys = testing::tiny_system(kUnlimited, /*storage=*/100);
  Assignment asg(sys);
  partition_all(sys, asg);
  const auto report = restore_storage(sys, asg, kW);
  ASSERT_EQ(report.infeasible_servers.size(), 1u);
  EXPECT_EQ(report.infeasible_servers[0], 0u);
  EXPECT_FALSE(report.feasible());
  // Everything deallocatable was deallocated anyway.
  EXPECT_TRUE(asg.stored_objects(0).empty());
}

TEST(StorageRestore, PrefersCheapDeallocationPerByte) {
  // A big object on a cold page vs a small object on a hot page: the
  // amortized criterion (delta-D per byte freed) must evict the big/cold one
  // and keep the small/hot one.
  SystemModel sys;
  Server s;
  s.ovhd_local = 0.0;
  s.ovhd_repo = 0.0;
  s.local_rate = 100.0;
  s.repo_rate = 1.0;  // repo is slow: deallocations genuinely hurt
  s.storage_capacity = 2 + 100;  // both HTMLs + the small object only
  sys.add_server(s);
  sys.add_object({1000});  // big
  sys.add_object({100});   // small
  Page cold;
  cold.host = 0;
  cold.html_bytes = 1;
  cold.frequency = 0.1;
  cold.compulsory = {0};
  sys.add_page(std::move(cold));
  Page hot;
  hot.host = 0;
  hot.html_bytes = 1;
  hot.frequency = 10.0;
  hot.compulsory = {1};
  sys.add_page(std::move(hot));
  sys.finalize();

  Assignment asg(sys);
  asg.set_comp_local(0, 0, true);
  asg.set_comp_local(1, 0, true);
  const auto report = restore_storage(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  // delta-D/byte: big ~ 2*0.1*990/1000 = 0.198, small ~ 2*10*99/100 = 19.8.
  EXPECT_FALSE(asg.comp_local(0, 0));
  EXPECT_TRUE(asg.comp_local(1, 0));
  EXPECT_EQ(report.deallocations, 1u);
}

TEST(StorageRestore, RepartitionRecoversLocalDownloads) {
  // After deallocating an object, a page should pull still-stored objects
  // into its local pipeline when that now helps.
  const SystemModel sys = testing::two_server_system(
      /*proc_capacity=*/kUnlimited,
      /*storage=*/(1 + 2 + 10 + 8 + 2 + 5) * testing::kKB);  // no room for big
  Assignment asg(sys);
  partition_all(sys, asg);
  const auto report = restore_storage(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  EXPECT_TRUE(audit_constraints(sys, asg).ok());
  // big (40K) cannot be stored on server 0 alongside everything else.
  EXPECT_LE(asg.storage_used(0), sys.server(0).storage_capacity);
}

TEST(StorageRestore, RawCriterionAblationAlsoRestores) {
  WorkloadParams params = testing::small_params();
  params.storage_fraction = 0.3;
  const SystemModel sys = generate_workload(params, 51);
  for (const bool amortize : {true, false}) {
    Assignment asg(sys);
    partition_all(sys, asg);
    StorageRestoreOptions opt;
    opt.amortize_by_size = amortize;
    const auto report = restore_storage(sys, asg, kW, opt);
    EXPECT_TRUE(report.feasible());
    for (ServerId i = 0; i < sys.num_servers(); ++i) {
      EXPECT_LE(asg.storage_used(i), sys.server(i).storage_capacity);
    }
  }
}

TEST(StorageRestore, NoRepartitionAblationStillFeasible) {
  WorkloadParams params = testing::small_params();
  params.storage_fraction = 0.4;
  const SystemModel sys = generate_workload(params, 52);
  Assignment with(sys), without(sys);
  partition_all(sys, with);
  partition_all(sys, without);

  StorageRestoreOptions no_repart;
  no_repart.repartition_after_dealloc = false;
  restore_storage(sys, with, kW);
  restore_storage(sys, without, kW, no_repart);
  // Both feasible; the repartitioning variant must not be worse.
  EXPECT_LE(objective_total_cached(with, kW),
            objective_total_cached(without, kW) + 1e-6);
}

// Property: restoration always lands within capacity (or declares
// infeasible) and never corrupts the caches, across storage fractions.
class StorageRestoreProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(StorageRestoreProperty, RestoresAndKeepsCachesConsistent) {
  const auto [seed, fraction] = GetParam();
  WorkloadParams params = testing::small_params();
  params.storage_fraction = fraction;
  const SystemModel sys = generate_workload(params, seed);
  Assignment asg(sys);
  partition_all(sys, asg);
  const auto report = restore_storage(sys, asg, kW);

  const ConstraintReport audit = audit_constraints(sys, asg);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    if (std::find(report.infeasible_servers.begin(),
                  report.infeasible_servers.end(),
                  i) == report.infeasible_servers.end()) {
      EXPECT_LE(audit.storage_used[i], sys.server(i).storage_capacity)
          << "server " << i << " fraction " << fraction;
    }
    EXPECT_EQ(asg.storage_used(i), audit.storage_used[i]);
  }
  // Cache consistency after the heavy mutation sequence.
  Assignment fresh = asg;
  fresh.recompute_caches();
  EXPECT_NEAR(objective_total_cached(asg, kW),
              objective_total_cached(fresh, kW), 1e-6);
}

// ---- Differential test against the reference cascade -----------------------
//
// The reference below is the cascade in its plain form: criteria from the
// division-based Eq. 3/4/6 formulas, the heap seeded push by push, and every
// stored object on an affected page dirtied after each deallocation. It
// shares only the (criterion, rank) total order and repartition_within_store
// with restore_storage, which must reproduce it bit for bit: re-scoring at
// pop deallocates an entry whose key still equals its value, which is the
// entry the reference pops (again at once, if it re-scored it), and the
// fixpoint skip leaves out only repartitions that change no bit.

struct RefEntry {
  double criterion;
  std::uint32_t rank;
  std::uint64_t epoch;
};

struct RefLater {
  bool operator()(const RefEntry& a, const RefEntry& b) const {
    if (a.criterion != b.criterion) return a.criterion > b.criterion;
    return a.rank > b.rank;
  }
};

double reference_criterion(const SystemModel& sys, const Assignment& asg,
                           ServerId i, ObjectId k, const Weights& w,
                           const StorageRestoreOptions& options) {
  const Server& s = sys.server(i);
  const std::uint64_t bytes = sys.object_bytes(k);
  double delta = 0;
  for (const PageObjectRef& ref : sys.object_refs_on_server(i, k)) {
    if (!asg.ref_local(ref)) continue;
    const Page& p = sys.page(ref.page);
    if (ref.compulsory) {
      const double lt = asg.page_local_time(ref.page);
      const double rt = asg.page_remote_time(ref.page);
      delta += w.alpha1 * p.frequency *
               (std::max(lt - transfer_seconds(bytes, s.local_rate),
                         rt + transfer_seconds(bytes, s.repo_rate)) -
                std::max(lt, rt));
    } else {
      const double t_local =
          s.ovhd_local + transfer_seconds(bytes, s.local_rate);
      const double t_remote =
          s.ovhd_repo + transfer_seconds(bytes, s.repo_rate);
      delta += -1.0 * w.alpha2 * p.frequency * p.optional_scale *
               p.optional[ref.index].probability * (t_local - t_remote);
    }
  }
  if (!options.amortize_by_size) return delta;
  return delta / static_cast<double>(bytes);
}

StorageRestoreReport reference_restore(const SystemModel& sys,
                                       Assignment& asg, const Weights& w,
                                       const StorageRestoreOptions& options) {
  StorageRestoreReport report;
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const std::uint64_t capacity = sys.server(i).storage_capacity;
    if (asg.storage_used(i) <= capacity) continue;
    const std::uint32_t n_ranks = sys.num_referenced(i);
    std::vector<std::uint64_t> epoch(n_ranks, 0);
    std::vector<std::uint8_t> allowed(n_ranks, 0);
    std::priority_queue<RefEntry, std::vector<RefEntry>, RefLater> heap;
    auto push = [&](std::uint32_t rank) {
      heap.push({reference_criterion(sys, asg, i, sys.object_at_rank(i, rank),
                                     w, options),
                 rank, epoch[rank]});
    };
    for (std::uint32_t rank = 0; rank < n_ranks; ++rank) {
      if (!asg.stored_at(i, rank)) continue;
      push(rank);
      allowed[rank] = 1;
    }
    while (asg.storage_used(i) > capacity) {
      if (heap.empty()) {
        report.infeasible_servers.push_back(i);
        break;
      }
      const RefEntry top = heap.top();
      heap.pop();
      const std::uint32_t rank = top.rank;
      if (!asg.stored_at(i, rank)) continue;
      if (top.epoch != epoch[rank]) {
        push(rank);
        continue;
      }
      std::vector<PageId> affected;
      for (const PageObjectRef& ref : sys.refs_at_rank(i, rank)) {
        if (asg.ref_local(ref)) {
          asg.set_ref_local(ref, false);
          affected.push_back(ref.page);
        }
      }
      ++report.deallocations;
      report.bytes_freed += sys.object_bytes(sys.object_at_rank(i, rank));
      allowed[rank] = 0;
      if (options.repartition_after_dealloc) {
        for (PageId j : affected) {
          ++report.repartitioned_pages;
          if (repartition_within_store(sys, asg, j, allowed, w)) {
            ++report.repartition_improvements;
          }
        }
      }
      for (PageId j : affected) {
        const Page& p = sys.page(j);
        auto refresh = [&](std::uint32_t r) {
          const bool stored = asg.stored_at(i, r);
          allowed[r] = stored && r != rank ? 1 : 0;
          if (stored) ++epoch[r];
        };
        for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
          refresh(sys.comp_rank(j, idx));
        }
        for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
          refresh(sys.opt_rank(j, idx));
        }
      }
    }
  }
  return report;
}

/// Runs restore_storage from `start` at pools of 1/2/8 threads x 1/2/8
/// shards and requires every result to equal the reference cascade's bit for
/// bit. Returns the skipped-repartition count, which must not depend on the
/// pool or the shards either.
std::uint32_t expect_matches_reference(const SystemModel& sys,
                                       const StorageRestoreOptions& options,
                                       const Assignment& start) {
  Assignment expected = start;
  const StorageRestoreReport want =
      reference_restore(sys, expected, kW, options);
  std::optional<std::uint32_t> skipped;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (std::uint32_t shards : {1u, 2u, 8u}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, " << shards
                                        << " shards");
      const ShardPlan plan = make_shard_plan(sys, shards);
      Assignment asg = start;
      const StorageRestoreReport got =
          restore_storage(sys, asg, kW, options, &pool, &plan);
      EXPECT_EQ(asg.comp_bits(), expected.comp_bits());
      EXPECT_EQ(asg.opt_bits(), expected.opt_bits());
      EXPECT_EQ(got.deallocations, want.deallocations);
      EXPECT_EQ(got.repartitioned_pages, want.repartitioned_pages);
      EXPECT_EQ(got.repartition_improvements, want.repartition_improvements);
      EXPECT_EQ(got.bytes_freed, want.bytes_freed);
      EXPECT_EQ(got.infeasible_servers, want.infeasible_servers);
      // Exact equality on purpose: same marks, same cache arithmetic.
      EXPECT_EQ(objective_total_cached(asg, kW),
                objective_total_cached(expected, kW));
      EXPECT_LE(got.repartitions_skipped, got.repartitioned_pages);
      if (!skipped) skipped = got.repartitions_skipped;
      EXPECT_EQ(got.repartitions_skipped, *skipped);
    }
  }
  return *skipped;
}

/// The same, starting from the greedy PARTITION output.
std::uint32_t expect_matches_reference(const SystemModel& sys,
                                       const StorageRestoreOptions& options) {
  Assignment start(sys);
  partition_all(sys, start);
  return expect_matches_reference(sys, options, start);
}

TEST_P(StorageRestoreProperty, MatchesReferenceCascade) {
  const auto [seed, fraction] = GetParam();
  WorkloadParams params = testing::small_params();
  params.storage_fraction = fraction;
  const SystemModel sys = generate_workload(params, seed);
  StorageRestoreOptions raw;
  raw.amortize_by_size = false;
  StorageRestoreOptions no_repart;
  no_repart.repartition_after_dealloc = false;
  for (const StorageRestoreOptions& options :
       {StorageRestoreOptions{}, raw, no_repart}) {
    SCOPED_TRACE(::testing::Message()
                 << "amortize " << options.amortize_by_size << ", repartition "
                 << options.repartition_after_dealloc);
    expect_matches_reference(sys, options);
  }
}

// Starting marks other than the greedy PARTITION output, which the
// fixpoint flags must not take for a fixpoint: the exact split, the literal
// "store all optional objects", and seeded random marks.
TEST_P(StorageRestoreProperty, MatchesReferenceCascadeFromOtherMarks) {
  const auto [seed, fraction] = GetParam();
  WorkloadParams params = testing::small_params();
  params.storage_fraction = fraction;
  const SystemModel sys = generate_workload(params, seed);
  PartitionOptions exact;
  exact.exact = true;
  PartitionOptions all_optional;
  all_optional.store_all_optional = true;
  for (const PartitionOptions& partition : {exact, all_optional}) {
    SCOPED_TRACE(::testing::Message()
                 << "exact " << partition.exact << ", store_all_optional "
                 << partition.store_all_optional);
    Assignment start(sys);
    partition_all(sys, start, partition);
    expect_matches_reference(sys, {}, start);
  }
  SCOPED_TRACE("random marks");
  Assignment start(sys);
  Rng rng(seed);
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
      start.set_comp_local(j, idx, rng.uniform() < 0.5);
    }
    for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
      start.set_opt_local(j, idx, rng.uniform() < 0.5);
    }
  }
  expect_matches_reference(sys, {}, start);
}

TEST(StorageRestore, MatchesReferenceCascadeAtSmallScaleTier) {
  WorkloadParams params = scale_params(ScaleTier::kSmall);
  params.storage_fraction = 0.3;
  const SystemModel sys = generate_workload(params, 11);
  expect_matches_reference(sys, {});
}

TEST(StorageRestore, MatchesReferenceCascadeAtSmallScaleTierSecondSeed) {
  for (const double fraction : {0.1, 0.3}) {
    SCOPED_TRACE(::testing::Message() << "fraction " << fraction);
    WorkloadParams params = scale_params(ScaleTier::kSmall);
    params.storage_fraction = fraction;
    const SystemModel sys = generate_workload(params, 29);
    // Storage this tight deallocates objects that other pages hold as
    // optional, and the pages at their fixpoint skip that repartition.
    EXPECT_GT(expect_matches_reference(sys, {}), 0u);
  }
}

TEST(StorageRestore, ExactTiesDeallocateLowerRankFirst) {
  // Eight identical objects, each alone on an identical page: every
  // criterion is the same double. Storage holds the HTML plus three objects,
  // so five deallocations happen, all on exact ties, and the (criterion,
  // rank) order must take ranks 0..4 whatever the heap's layout.
  constexpr std::uint32_t kObjects = 8;
  SystemModel sys;
  Server s;
  s.ovhd_local = 1.0;
  s.ovhd_repo = 2.0;
  s.local_rate = 100.0;
  s.repo_rate = 10.0;
  s.storage_capacity = kObjects * 10 + 3 * 500;
  sys.add_server(s);
  for (std::uint32_t x = 0; x < kObjects; ++x) {
    const ObjectId k = sys.add_object({500});
    Page p;
    p.host = 0;
    p.html_bytes = 10;
    p.frequency = 1.0;
    p.compulsory = {k};
    sys.add_page(std::move(p));
  }
  sys.finalize();

  Assignment asg(sys);
  partition_all(sys, asg);
  ASSERT_EQ(asg.stored_objects(0).size(), kObjects);
  const auto report = restore_storage(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  EXPECT_EQ(report.deallocations, 5u);
  EXPECT_EQ(asg.stored_objects(0), (std::vector<ObjectId>{5, 6, 7}));
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, StorageRestoreProperty,
    ::testing::Combine(::testing::Values(61, 62, 63),
                       ::testing::Values(0.1, 0.4, 0.7, 1.0)));

}  // namespace
}  // namespace mmr
