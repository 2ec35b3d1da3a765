#include "core/processing_restore.h"

#include <gtest/gtest.h>

#include <bit>

#include "core/delta.h"
#include "core/partition.h"
#include "io/provenance.h"
#include "model/cost.h"
#include "model/shard.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace mmr {
namespace {

constexpr Weights kW{2.0, 1.0};

TEST(ProcessingRestore, NoopWhenWithinCapacity) {
  const SystemModel sys = testing::tiny_system(/*proc_capacity=*/100.0);
  Assignment asg(sys);
  partition_all(sys, asg);
  const double before = objective_total_cached(asg, kW);
  const auto report = restore_processing(sys, asg, kW);
  EXPECT_EQ(report.unmarked_slots, 0u);
  EXPECT_DOUBLE_EQ(objective_total_cached(asg, kW), before);
}

TEST(ProcessingRestore, ShedsLoadUntilFits) {
  // Full-local load = f*(1+2+0.25) = 6.5; capacity 5 forces shedding.
  const SystemModel sys = testing::tiny_system(/*proc_capacity=*/5.0);
  Assignment asg(sys);
  partition_all(sys, asg);
  ASSERT_GT(asg.server_proc_load(0), 5.0);

  const auto report = restore_processing(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  EXPECT_LE(asg.server_proc_load(0), 5.0 + 1e-9);
  EXPECT_GE(report.unmarked_slots, 1u);
  EXPECT_TRUE(within_capacity(
      audit_constraints(sys, asg).server_proc_load[0], 5.0));
}

TEST(ProcessingRestore, ShedsCheapestSlotFirst) {
  // Capacity forces exactly one shed; the optional slot frees only
  // 0.25*f = 0.5 req/s while a compulsory slot frees f = 2. The amortized
  // criterion picks the slot with least delta-D per req/s freed — here the
  // optional one is also by far the cheapest in delta (0.25 weight), so it
  // must go first.
  const SystemModel sys = testing::tiny_system(/*proc_capacity=*/6.2);
  Assignment asg(sys);
  partition_all(sys, asg);  // load 6.5
  const auto report = restore_processing(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  EXPECT_EQ(report.unmarked_slots, 1u);
  EXPECT_FALSE(asg.opt_local(0, 0));
  EXPECT_TRUE(asg.comp_local(0, 0));
  EXPECT_TRUE(asg.comp_local(0, 1));
}

TEST(ProcessingRestore, DeallocatesObjectsWithNoMarksLeft) {
  const SystemModel sys = testing::tiny_system(/*proc_capacity=*/2.5);
  Assignment asg(sys);
  partition_all(sys, asg);
  const auto report = restore_processing(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  // Capacity 2.5 with f=2 leaves almost nothing beyond the HTML request:
  // everything is unmarked and hence deallocated.
  EXPECT_EQ(asg.num_comp_local(0), 0u);
  EXPECT_EQ(asg.num_opt_local(0), 0u);
  EXPECT_TRUE(asg.stored_objects(0).empty());
  EXPECT_EQ(report.objects_deallocated, 3u);
}

TEST(ProcessingRestore, InfeasibleWhenMandatoryLoadExceeds) {
  // f = 2 HTML requests/sec > capacity 1: nothing to shed.
  const SystemModel sys = testing::tiny_system(/*proc_capacity=*/1.0);
  Assignment asg(sys);
  const auto report = restore_processing(sys, asg, kW);
  ASSERT_EQ(report.infeasible_servers.size(), 1u);
  EXPECT_FALSE(report.feasible());
}

TEST(ProcessingRestore, OnlyOverloadedServersTouched) {
  const SystemModel sys = testing::two_server_system(/*proc_capacity=*/1000.0);
  Assignment asg(sys);
  partition_all(sys, asg);
  // Overload only server 1 by lowering its capacity below its load.
  SystemModel& mut = const_cast<SystemModel&>(sys);
  mut.mutable_server(1).proc_capacity = asg.server_proc_load(1) - 0.5;

  const auto snapshot0 = asg.server_proc_load(0);
  const auto report = restore_processing(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  EXPECT_DOUBLE_EQ(asg.server_proc_load(0), snapshot0);
  EXPECT_LE(asg.server_proc_load(1), mut.server(1).proc_capacity + 1e-9);
}

// Property sweep over capacity fractions: always feasible (mandatory load is
// well below), constraints audited from scratch, caches intact.
class ProcessingRestoreProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ProcessingRestoreProperty, RestoresEq8) {
  const auto [seed, fraction] = GetParam();
  WorkloadParams params = testing::small_params();
  const SystemModel* base = nullptr;
  SystemModel sys = generate_workload(params, seed);
  base = &sys;

  Assignment asg(sys);
  partition_all(sys, asg);
  // Capacity = mandatory + fraction * (unconstrained - mandatory).
  std::vector<double> caps(sys.num_servers());
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const double mandatory = sys.page_request_rate(i);
    caps[i] = mandatory + fraction * (asg.server_proc_load(i) - mandatory);
  }
  set_processing_capacities(sys, caps);

  const auto report = restore_processing(*base, asg, kW);
  EXPECT_TRUE(report.feasible());
  const ConstraintReport audit = audit_constraints(sys, asg);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    EXPECT_TRUE(within_capacity(audit.server_proc_load[i],
                                sys.server(i).proc_capacity))
        << "server " << i;
  }
  Assignment fresh = asg;
  fresh.recompute_caches();
  EXPECT_NEAR(objective_total_cached(asg, kW),
              objective_total_cached(fresh, kW), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, ProcessingRestoreProperty,
    ::testing::Combine(::testing::Values(71, 72),
                       ::testing::Values(0.0, 0.3, 0.6, 0.9)));

// With both weights 0 every slot's criterion is zero, so the tie rules alone
// decide: the compulsory slot with the lowest index goes before the optional
// one that ShedsCheapestSlotFirst sheds under the paper's weights.
TEST(ProcessingRestore, CompulsoryWinsAnExactTie) {
  const SystemModel sys = testing::tiny_system(/*proc_capacity=*/6.2);
  Assignment asg(sys);
  partition_all(sys, asg);  // load 6.5
  const auto report = restore_processing(sys, asg, Weights{0.0, 0.0});
  EXPECT_TRUE(report.feasible());
  EXPECT_EQ(report.unmarked_slots, 1u);
  EXPECT_FALSE(asg.comp_local(0, 0));
  EXPECT_TRUE(asg.comp_local(0, 1));
  EXPECT_TRUE(asg.opt_local(0, 0));
}

// Two identical pages on one server, each with one compulsory and one
// optional object of equal sizes, so both optional slots carry the same
// criterion bit for bit. Full-local load is 2 * 2 * (1 + 1 + 0.25) = 9;
// capacity 8.6 sheds exactly one optional slot, and the tie order (lower
// page id first) decides which.
TEST(ProcessingRestore, TieGoesToLowerPageId) {
  SystemModel sys;
  Server s;
  s.proc_capacity = 8.6;
  s.storage_capacity = 10 * testing::kKB;
  s.ovhd_local = 1.0;
  s.ovhd_repo = 2.0;
  s.local_rate = 100.0;
  s.repo_rate = 10.0;
  sys.add_server(s);
  sys.set_repository({kUnlimited});
  for (int n = 0; n < 2; ++n) {
    const ObjectId comp = sys.add_object({300});
    const ObjectId opt = sys.add_object({400});
    Page p;
    p.host = 0;
    p.html_bytes = 200;
    p.frequency = 2.0;
    p.compulsory = {comp};
    p.optional = {{opt, 0.25}};
    sys.add_page(std::move(p));
  }
  sys.finalize();

  Assignment asg(sys);
  partition_all(sys, asg);
  ASSERT_DOUBLE_EQ(asg.server_proc_load(0), 9.0);
  const auto report = restore_processing(sys, asg, kW);
  EXPECT_TRUE(report.feasible());
  EXPECT_EQ(report.unmarked_slots, 1u);
  EXPECT_FALSE(asg.opt_local(0, 0));
  EXPECT_TRUE(asg.opt_local(1, 0));
  EXPECT_TRUE(asg.comp_local(0, 0));
  EXPECT_TRUE(asg.comp_local(1, 0));
}

// A page with f(W_j) = 0 and a page with optional_scale = 0 next to an
// ordinary one. Their slots free no Eq. 8 load (the amortized criterion
// would divide by zero), so restoration leaves them marked and sheds only
// the ordinary page. Capacity 3 is below the server's mandatory load 4, so
// everything sheddable goes and the server stays infeasible.
TEST(ProcessingRestore, ZeroWorkloadSlotsAreNeverCandidates) {
  SystemModel sys;
  Server s;
  s.proc_capacity = 3.0;
  s.storage_capacity = 100 * testing::kKB;
  s.ovhd_local = 1.0;
  s.ovhd_repo = 2.0;
  s.local_rate = 100.0;
  s.repo_rate = 10.0;
  sys.add_server(s);
  sys.set_repository({kUnlimited});
  for (int n = 0; n < 3; ++n) {
    Page p;
    p.host = 0;
    p.html_bytes = 200;
    p.frequency = n == 0 ? 0.0 : 2.0;
    p.optional_scale = n == 1 ? 0.0 : 1.0;
    p.compulsory = {sys.add_object({300}), sys.add_object({500})};
    p.optional = {{sys.add_object({400}), 0.25}};
    sys.add_page(std::move(p));
  }
  sys.finalize();

  for (const bool amortize : {true, false}) {
    SCOPED_TRACE(amortize);
    Assignment asg(sys);
    partition_all(sys, asg);  // every slot local
    ProcessingRestoreOptions options;
    options.amortize_by_workload = amortize;
    const auto report = restore_processing(sys, asg, kW, options);
    ASSERT_EQ(report.infeasible_servers.size(), 1u);
    EXPECT_EQ(asg.num_comp_local(0), 2u);
    EXPECT_TRUE(asg.opt_local(0, 0));
    EXPECT_EQ(asg.num_comp_local(1), 0u);
    EXPECT_TRUE(asg.opt_local(1, 0));
    EXPECT_EQ(asg.num_comp_local(2), 0u);
    EXPECT_FALSE(asg.opt_local(2, 0));
    EXPECT_EQ(report.unmarked_slots, 5u);
    EXPECT_DOUBLE_EQ(asg.server_proc_load(0), 4.0);
  }
}

TEST(ProcessingRestore, RejectsNegativeAlpha1) {
  const SystemModel sys = testing::tiny_system(/*proc_capacity=*/5.0);
  Assignment asg(sys);
  partition_all(sys, asg);
  EXPECT_THROW(restore_processing(sys, asg, Weights{-1.0, 1.0}), CheckError);
}

// Brute-force Eq. 8 restoration: at every step rescore every local slot of
// the server and unmark the first under the documented total order
// (criterion, page id, compulsory before optional, slot index). A slot that
// frees no Eq. 8 load is not a candidate.
struct RefUnmark {
  PageId page;
  ObjectId object;
  bool compulsory;
  double criterion;
};

std::vector<RefUnmark> reference_restore(const SystemModel& sys,
                                         Assignment& asg, bool amortize) {
  std::vector<RefUnmark> steps;
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    while (!within_capacity(asg.server_proc_load(i),
                            sys.server(i).proc_capacity)) {
      bool found = false;
      PageObjectRef best{};
      double best_c = 0;
      auto less = [&](double c, const PageObjectRef& r) {
        if (c != best_c) return c < best_c;
        if (r.page != best.page) return r.page < best.page;
        if (r.compulsory != best.compulsory) return r.compulsory;
        return r.index < best.index;
      };
      for (PageId j : sys.pages_on_server(i)) {
        const Page& p = sys.page(j);
        for (int kind = 0; kind < 2; ++kind) {
          const bool comp = kind == 0;
          const std::size_t n = comp ? p.compulsory.size() : p.optional.size();
          for (std::uint32_t idx = 0; idx < n; ++idx) {
            const PageObjectRef r{j, comp, idx};
            if (!asg.ref_local(r) || !(slot_workload(sys, r) > 0)) continue;
            double c = comp ? unmark_comp_delta(asg, j, idx, kW)
                            : unmark_opt_delta(asg, j, idx, kW);
            if (amortize) c /= slot_workload(sys, r);
            if (!found || less(c, r)) {
              best = r;
              best_c = c;
              found = true;
            }
          }
        }
      }
      if (!found) break;
      const Page& p = sys.page(best.page);
      const ObjectId k = best.compulsory ? p.compulsory[best.index]
                                         : p.optional[best.index].object;
      asg.set_ref_local(best, false);
      steps.push_back({best.page, k, best.compulsory, best_c});
    }
  }
  return steps;
}

enum class Instance { kSmall, kAllLinked, kPlateaus };

// Two servers of pages whose compulsory sizes come from three values, so
// equal sizes tie exactly and the criterion has plateaus; every page has
// optional links. Each server's first page has f(W_j) = 0 and its second
// optional_scale = 0, so some slots free no Eq. 8 load.
SystemModel plateau_system(std::uint64_t seed) {
  Rng rng(seed);
  SystemModel sys;
  for (int n = 0; n < 2; ++n) {
    Server s;
    s.storage_capacity = 10 * testing::kMB;
    s.ovhd_local = rng.uniform(0.5, 1.5);
    s.ovhd_repo = rng.uniform(1.5, 3.0);
    s.local_rate = rng.uniform(2000.0, 4000.0);
    s.repo_rate = rng.uniform(300.0, 900.0);
    sys.add_server(s);
  }
  sys.set_repository({kUnlimited});
  constexpr std::uint32_t kObjects = 60;
  const std::uint64_t sizes[] = {1000, 4000, 16000};
  for (std::uint32_t k = 0; k < kObjects; ++k) {
    sys.add_object({sizes[rng.bounded(3)]});
  }
  for (ServerId host = 0; host < 2; ++host) {
    for (int n = 0; n < 6; ++n) {
      Page p;
      p.host = host;
      p.html_bytes = 500;
      p.frequency = n == 0 ? 0.0 : rng.uniform(0.5, 3.0);
      p.optional_scale = n == 1 ? 0.0 : 1.0;
      const auto n_comp = static_cast<std::uint32_t>(rng.uniform_int(6, 16));
      const auto n_opt = static_cast<std::uint32_t>(rng.uniform_int(3, 8));
      const std::vector<std::uint32_t> picks =
          rng.sample_without_replacement(kObjects, n_comp + n_opt);
      for (std::uint32_t x = 0; x < n_comp; ++x) {
        p.compulsory.push_back(picks[x]);
      }
      for (std::uint32_t x = n_comp; x < n_comp + n_opt; ++x) {
        p.optional.push_back({picks[x], rng.uniform(0.05, 0.5)});
      }
      sys.add_page(std::move(p));
    }
  }
  sys.finalize();
  return sys;
}

SystemModel make_instance(Instance kind, std::uint64_t seed) {
  if (kind == Instance::kPlateaus) return plateau_system(seed);
  WorkloadParams params = testing::small_params();
  if (kind == Instance::kAllLinked) params.pages_with_optional = 1.0;
  return generate_workload(params, seed);
}

class ProcessingRestoreReference
    : public ::testing::TestWithParam<
          std::tuple<Instance, std::uint64_t, double, bool>> {};

TEST_P(ProcessingRestoreReference, MatchesBruteForceBitForBit) {
  const auto [kind, seed, fraction, amortize] = GetParam();
  SystemModel sys = make_instance(kind, seed);
  Assignment asg(sys);
  partition_all(sys, asg);
  std::vector<double> caps(sys.num_servers());
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const double mandatory = sys.page_request_rate(i);
    caps[i] = mandatory + fraction * (asg.server_proc_load(i) - mandatory);
  }
  set_processing_capacities(sys, caps);
  const Assignment start = asg;

  Assignment expected = asg;
  const std::vector<RefUnmark> steps =
      reference_restore(sys, expected, amortize);

  ProcessingRestoreOptions options;
  options.amortize_by_workload = amortize;
  const testing::RecordingScope audit_on(kRecAudit);
  const auto report = restore_processing(sys, asg, kW, options);
  const AuditSnapshot audit = global_audit_log().snapshot();

  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(report.unmarked_slots, steps.size());
  ASSERT_EQ(audit.unmarks.size(), steps.size());
  for (std::size_t n = 0; n < steps.size(); ++n) {
    SCOPED_TRACE(::testing::Message() << "step " << n);
    EXPECT_EQ(audit.unmarks[n].page, steps[n].page);
    EXPECT_EQ(audit.unmarks[n].object, steps[n].object);
    EXPECT_EQ(audit.unmarks[n].compulsory, steps[n].compulsory);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(audit.unmarks[n].criterion),
              std::bit_cast<std::uint64_t>(steps[n].criterion));
  }
  EXPECT_EQ(asg.comp_bits(), expected.comp_bits());
  EXPECT_EQ(asg.opt_bits(), expected.opt_bits());
  EXPECT_EQ(objective_total_cached(asg, kW),
            objective_total_cached(expected, kW));

  // Any thread count and shard count gives the same bits and report.
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const std::uint32_t shards : {1u, 2u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, " << shards << " shards");
      const ShardPlan plan = make_shard_plan(sys, shards);
      Assignment sharded = start;
      const auto r = restore_processing(sys, sharded, kW, options, &pool,
                                        &plan);
      EXPECT_EQ(r.unmarked_slots, report.unmarked_slots);
      EXPECT_EQ(r.objects_deallocated, report.objects_deallocated);
      EXPECT_EQ(r.infeasible_servers, report.infeasible_servers);
      EXPECT_EQ(sharded.comp_bits(), asg.comp_bits());
      EXPECT_EQ(sharded.opt_bits(), asg.opt_bits());
      EXPECT_EQ(objective_total_cached(sharded, kW),
                objective_total_cached(asg, kW));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, ProcessingRestoreReference,
    ::testing::Combine(::testing::Values(Instance::kSmall,
                                         Instance::kAllLinked,
                                         Instance::kPlateaus),
                       ::testing::Values(81, 82, 83),
                       ::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Bool()));

}  // namespace
}  // namespace mmr
