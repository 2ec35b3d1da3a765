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
  sp.lru_warm_start = true;
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
  sp.lru_enforce_capacity = true;
  const Simulator sim(sys, sp);
  const SimMetrics throttled = sim.simulate_lru(19);
  EXPECT_GT(throttled.throttled_requests, 0u);

  SimParams sp_free = sp;
  sp_free.lru_enforce_capacity = false;
  const Simulator sim_free(sys, sp_free);
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

TEST(SimulatorGolden, LruThrottledColdStart) {
  WorkloadParams wp = testing::small_params();
  wp.server_proc_capacity = 8.0;
  SystemModel sys = generate_workload(wp, 402);
  set_storage_fraction(sys, 0.5);
  SimParams sp;
  sp.requests_per_server = 2000;
  sp.lru_warm_start = false;
  expect_golden(Simulator(sys, sp).simulate_lru(42),
                {41781, 8250, 8051, 37053, 0, 0, 6000, 266,
                 0x1.4e39440d7c474p+12, 0x1.f68a54f7e101p+7});
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
  SimParams r;
  r.token_burst_seconds = 0;
  EXPECT_THROW(r.validate(), CheckError);
}

}  // namespace
}  // namespace mmr
