#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "baselines/static_policies.h"
#include "core/partition.h"
#include "test_helpers.h"
#include "workload/generator.h"

namespace mmr {
namespace {

SimParams fast_params() {
  SimParams p;
  p.requests_per_server = 300;
  return p;
}

TEST(Simulator, DeterministicInSeed) {
  const SystemModel sys = generate_workload(testing::small_params(), 201);
  const Simulator sim(sys, fast_params());
  const Assignment asg = make_local_assignment(sys);
  const SimMetrics a = sim.simulate(asg, 5);
  const SimMetrics b = sim.simulate(asg, 5);
  EXPECT_DOUBLE_EQ(a.page_response.mean(), b.page_response.mean());
  EXPECT_EQ(a.page_response.count(), b.page_response.count());
  const SimMetrics c = sim.simulate(asg, 6);
  EXPECT_NE(a.page_response.mean(), c.page_response.mean());
}

TEST(Simulator, RequestCountMatchesParams) {
  const SystemModel sys = generate_workload(testing::small_params(), 202);
  const Simulator sim(sys, fast_params());
  const SimMetrics m = sim.simulate(make_remote_assignment(sys), 1);
  EXPECT_EQ(m.page_response.count(),
            static_cast<std::size_t>(300) * sys.num_servers());
  ASSERT_EQ(m.per_server_response.size(), sys.num_servers());
  for (const auto& s : m.per_server_response) {
    EXPECT_EQ(s.count(), 300u);
  }
}

TEST(Simulator, RemoteSlowerThanLocalUnderPaperRates) {
  // Repo link is ~10x slower: the all-remote policy must be far worse.
  const SystemModel sys = generate_workload(testing::small_params(), 203);
  const Simulator sim(sys, fast_params());
  const double remote =
      sim.simulate(make_remote_assignment(sys), 7).page_response.mean();
  const double local =
      sim.simulate(make_local_assignment(sys), 7).page_response.mean();
  EXPECT_GT(remote, 2.0 * local);
}

TEST(Simulator, PartitionBeatsBothTrivialPolicies) {
  const SystemModel sys = generate_workload(testing::small_params(), 204);
  Assignment ours(sys);
  partition_all(sys, ours);
  const Simulator sim(sys, fast_params());
  const std::uint64_t seed = 11;
  const double t_ours = sim.simulate(ours, seed).page_response.mean();
  const double t_local =
      sim.simulate(make_local_assignment(sys), seed).page_response.mean();
  const double t_remote =
      sim.simulate(make_remote_assignment(sys), seed).page_response.mean();
  EXPECT_LE(t_ours, t_local + 1e-9);
  EXPECT_LT(t_ours, t_remote);
}

TEST(Simulator, PairedStreamsAcrossPolicies) {
  // With zero perturbation severity, the all-local simulated mean must match
  // the cost model's frequency-weighted expectation closely (sampling error
  // only) — evidence that the simulator implements Eq. 3-5.
  WorkloadParams wp = testing::small_params();
  const SystemModel sys = generate_workload(wp, 205);
  SimParams sp = fast_params();
  sp.requests_per_server = 4000;
  sp.perturb.severity = 0.0;
  const Simulator sim(sys, sp);
  const Assignment local = make_local_assignment(sys);
  const double simulated = sim.simulate(local, 3).page_response.mean();
  const double expected = expected_mean_response_time(local);
  EXPECT_NEAR(simulated, expected, 0.05 * expected);
}

TEST(Simulator, OptionalDownloadsRecorded) {
  const SystemModel sys = generate_workload(testing::small_params(), 206);
  SimParams sp = fast_params();
  sp.requests_per_server = 2000;
  const Simulator sim(sys, sp);
  const SimMetrics m = sim.simulate(make_local_assignment(sys), 9);
  // ~10% of requests to optional-bearing pages trigger downloads.
  EXPECT_GT(m.optional_time.count(), 0u);
  EXPECT_GT(m.total_per_request.mean(), m.page_response.mean());
}

TEST(Simulator, NoOptionalWhenProbabilityZero) {
  const SystemModel sys = generate_workload(testing::small_params(), 207);
  SimParams sp = fast_params();
  sp.p_interested = 0.0;
  const Simulator sim(sys, sp);
  const SimMetrics m = sim.simulate(make_local_assignment(sys), 9);
  EXPECT_EQ(m.optional_time.count(), 0u);
}

TEST(SimulatorLru, WarmCacheServesHotPagesLocally) {
  WorkloadParams wp = testing::small_params();
  wp.storage_fraction = 1.0;  // cache fits everything
  const SystemModel sys = generate_workload(wp, 208);
  SimParams sp = fast_params();
  sp.requests_per_server = 1500;
  const Simulator sim(sys, sp);
  const SimMetrics lru = sim.simulate_lru(13);
  const SimMetrics local = sim.simulate(make_local_assignment(sys), 13);
  // With 100% storage the warmed LRU approaches the Local policy.
  EXPECT_GT(lru.lru_hits, lru.lru_misses);
  EXPECT_LT(lru.page_response.mean(), 1.3 * local.page_response.mean());
}

TEST(SimulatorLru, SmallCacheDegradesTowardRemote) {
  WorkloadParams wp = testing::small_params();
  const SystemModel sys0 = generate_workload(wp, 209);
  SimParams sp = fast_params();
  sp.requests_per_server = 800;
  {
    SystemModel sys = generate_workload(wp, 209);
    set_storage_fraction(sys, 0.05);
    const Simulator sim(sys, sp);
    const double tiny_cache = sim.simulate_lru(17).page_response.mean();
    SystemModel sys_full = generate_workload(wp, 209);
    const Simulator sim_full(sys_full, sp);
    const double full_cache = sim_full.simulate_lru(17).page_response.mean();
    EXPECT_GT(tiny_cache, full_cache);
  }
  (void)sys0;
}

TEST(SimulatorLru, CapacityThrottleRedirectsToRepo) {
  WorkloadParams wp = testing::small_params();
  wp.server_proc_capacity = 8.0;  // tiny HTTP capacity
  const SystemModel sys = generate_workload(wp, 210);
  SimParams sp = fast_params();
  sp.requests_per_server = 800;
  const Simulator sim(sys, sp);
  const SimMetrics throttled = sim.simulate_lru(19);
  EXPECT_GT(throttled.throttled_requests, 0u);

  // The same instance with C(S_i) = kUnlimited is never throttled.
  const SystemModel sys_free = generate_workload(testing::small_params(), 210);
  const Simulator sim_free(sys_free, sp);
  const SimMetrics free = sim_free.simulate_lru(19);
  EXPECT_EQ(free.throttled_requests, 0u);
  EXPECT_LE(free.page_response.mean(), throttled.page_response.mean() + 1e-9);
}

TEST(SimulatorLru, DeterministicInSeed) {
  const SystemModel sys = generate_workload(testing::small_params(), 211);
  const Simulator sim(sys, fast_params());
  EXPECT_DOUBLE_EQ(sim.simulate_lru(23).page_response.mean(),
                   sim.simulate_lru(23).page_response.mean());
}

// Golden outputs of the two dynamic baselines, pinned exactly. A change to
// the cache engine or to the arrival/fetch interleaving must leave every
// count and both means bit-identical (hex literals are exact doubles).
struct DynamicGolden {
  std::uint64_t hits, misses, evictions, throttled, creations, drops;
  std::uint64_t pages, optionals;
  double page_mean, optional_mean;
};

void expect_golden(const SimMetrics& m, const DynamicGolden& g) {
  EXPECT_EQ(m.lru_hits, g.hits);
  EXPECT_EQ(m.lru_misses, g.misses);
  EXPECT_EQ(m.lru_evictions, g.evictions);
  EXPECT_EQ(m.throttled_requests, g.throttled);
  EXPECT_EQ(m.replica_creations, g.creations);
  EXPECT_EQ(m.replica_drops, g.drops);
  EXPECT_EQ(m.page_response.count(), g.pages);
  EXPECT_EQ(m.optional_time.count(), g.optionals);
  EXPECT_EQ(m.page_response.mean(), g.page_mean);
  EXPECT_EQ(m.optional_time.mean(), g.optional_mean);
}

TEST(SimulatorGolden, LruWarmStart) {
  SystemModel sys = generate_workload(testing::small_params(), 401);
  set_storage_fraction(sys, 0.3);
  SimParams sp;
  sp.requests_per_server = 2000;
  expect_golden(Simulator(sys, sp).simulate_lru(41),
                {58990, 36093, 35972, 0, 0, 0, 6000, 433,
                 0x1.00ec87e6190d2p+12, 0x1.4bef29c6c1591p+8});
}

TEST(SimulatorGolden, LruThrottledWarmStart) {
  WorkloadParams wp = testing::small_params();
  wp.server_proc_capacity = 8.0;
  SystemModel sys = generate_workload(wp, 402);
  set_storage_fraction(sys, 0.5);
  SimParams sp;
  sp.requests_per_server = 2000;
  expect_golden(Simulator(sys, sp).simulate_lru(42),
                {84997, 15566, 15376, 42276, 0, 0, 6000, 246,
                 0x1.69e466f56f7d3p+12, 0x1.6d89aa9f8d013p+9});
}

// CapacityThrottleRedirectsToRepo's instance with C(S_i) = kUnlimited: the
// Eq. 8 bucket never throttles, so every cache hit is served locally.
TEST(SimulatorGolden, LruUnthrottled) {
  const SystemModel sys = generate_workload(testing::small_params(), 210);
  SimParams sp;
  sp.requests_per_server = 800;
  expect_golden(Simulator(sys, sp).simulate_lru(19),
                {31196, 420, 0, 0, 0, 0, 2400, 128, 0x1.1fd9eed36fe51p+10,
                 0x1.5c12dbab1126bp+8});
}

TEST(SimulatorGolden, Threshold) {
  SystemModel sys = generate_workload(testing::small_params(), 403);
  set_storage_fraction(sys, 0.1);
  SimParams sp;
  sp.requests_per_server = 2000;
  const Simulator sim(sys, sp);
  expect_golden(sim.simulate_threshold(43, ThresholdParams{}),
                {0, 0, 0, 0, 46, 0, 6000, 145, 0x1.0ca3388a9573bp+12,
                 0x1.2d882daf66a64p+9});
  ThresholdParams churn;
  churn.replicate_at = 1.5;
  churn.drop_below = 1.0;
  churn.decay_per_second = 0.05;
  expect_golden(sim.simulate_threshold(44, churn),
                {0, 0, 0, 0, 46, 2, 6000, 116, 0x1.14c9a2df948bep+12,
                 0x1.0adf0188a5a4cp+9});
}

// The static simulate() pinned exactly, with and without the overload
// stretch: R and every S_i get half the load the placement puts on them, so
// both pipelines stretch 2x at overload_exponent 1.
TEST(SimulatorGolden, Static) {
  SystemModel sys = generate_workload(testing::small_params(), 404);
  Assignment ours(sys);
  partition_all(sys, ours);
  set_repo_capacity(sys, ours.repo_proc_load(), 0.5);
  std::vector<double> caps;
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    caps.push_back(0.5 * ours.server_proc_load(i));
  }
  set_processing_capacities(sys, caps);
  struct StaticGolden {
    double overload_exponent;
    double page_mean, optional_mean, total_mean;
  };
  for (const StaticGolden& g :
       {StaticGolden{0.0, 0x1.dade473934d4cp+9, 0x1.a5fb641b9484dp+7,
                     0x1.dbec58c0f4905p+9},
        StaticGolden{1.0, 0x1.da64d4a815d28p+10, 0x1.a4065de436f9fp+8,
                     0x1.db71a588040cbp+10}}) {
    SimParams sp;
    sp.requests_per_server = 2000;
    sp.overload_exponent = g.overload_exponent;
    const SimMetrics m = Simulator(sys, sp).simulate(ours, 45);
    EXPECT_EQ(m.page_response.count(), 6000u);
    EXPECT_EQ(m.optional_time.count(), 60u);
    EXPECT_EQ(m.total_per_request.count(), 6000u);
    EXPECT_EQ(m.page_response.mean(), g.page_mean);
    EXPECT_EQ(m.optional_time.mean(), g.optional_mean);
    EXPECT_EQ(m.total_per_request.mean(), g.total_mean);
  }
}

TEST(SimMetrics, MergeAggregates) {
  SimMetrics a, b;
  a.page_response.add(1.0);
  a.lru_hits = 3;
  a.per_server_response.resize(1);
  a.per_server_response[0].add(1.0);
  b.page_response.add(3.0);
  b.lru_hits = 4;
  b.throttled_requests = 2;
  b.per_server_response.resize(2);
  b.per_server_response[1].add(5.0);
  a.merge(b);
  EXPECT_EQ(a.page_response.count(), 2u);
  EXPECT_DOUBLE_EQ(a.page_response.mean(), 2.0);
  EXPECT_EQ(a.lru_hits, 7u);
  EXPECT_EQ(a.throttled_requests, 2u);
  ASSERT_EQ(a.per_server_response.size(), 2u);
  EXPECT_EQ(a.per_server_response[1].count(), 1u);
}

TEST(SimParams, ValidationCatchesBadValues) {
  SimParams p;
  p.requests_per_server = 0;
  EXPECT_THROW(p.validate(), CheckError);
  SimParams q;
  q.p_interested = 1.5;
  EXPECT_THROW(q.validate(), CheckError);
}

}  // namespace
}  // namespace mmr
