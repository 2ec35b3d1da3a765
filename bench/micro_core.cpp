// google-benchmark microbenchmarks for the optimization core: PARTITION
// throughput, exact-DP cost, delta evaluation, constraint restoration,
// objective evaluation and instance construction (pool sampling, finalize)
// at paper scale. Accepts --bench-out/--reps/--quick on top of the usual
// --benchmark_* flags (bench/micro_common.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "micro_common.h"

#include "baselines/static_policies.h"
#include "core/delta.h"
#include "core/partition.h"
#include "core/policy.h"
#include "core/processing_restore.h"
#include "core/storage_restore.h"
#include "io/provenance.h"
#include "model/cost.h"
#include "sim/simulator.h"
#include "util/recording.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scale.h"

namespace mmr {
namespace {

const SystemModel& paper_system() {
  static const SystemModel sys = [] {
    WorkloadParams wl;
    wl.server_proc_capacity = kUnlimited;
    wl.repo_proc_capacity = kUnlimited;
    return generate_workload(wl, 42);
  }();
  return sys;
}

void BM_PartitionPage(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  PageId j = 0;
  for (auto _ : state) {
    partition_page(sys, asg, j);
    j = (j + 1) % static_cast<PageId>(sys.num_pages());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionPage);

void BM_PartitionAllPages(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  for (auto _ : state) {
    Assignment asg(sys);
    partition_all(sys, asg);
    benchmark::DoNotOptimize(asg.repo_proc_load());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sys.num_pages()));
}
BENCHMARK(BM_PartitionAllPages);

// Pre-flattening PARTITION, reproduced for comparison: allocates and sorts
// the slot order and divides by the link rates on every call, exactly like
// the original slots_by_decreasing_size-based implementation. The ratio
// BM_PartitionPage / BM_PartitionPageSortBaseline is the flat-cache win.
void BM_PartitionPageSortBaseline(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  PageId j = 0;
  for (auto _ : state) {
    const Page& p = sys.page(j);
    const Server& s = sys.server(p.host);
    std::vector<std::uint32_t> order(p.compulsory.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint64_t sa = sys.object_bytes(p.compulsory[a]);
                const std::uint64_t sb = sys.object_bytes(p.compulsory[b]);
                return sa != sb ? sa > sb : a < b;
              });
    double local = s.ovhd_local + transfer_seconds(p.html_bytes, s.local_rate);
    double remote = s.ovhd_repo;
    for (std::uint32_t idx : order) {
      const std::uint64_t bytes = sys.object_bytes(p.compulsory[idx]);
      const double a = transfer_seconds(bytes, s.local_rate);
      const double b = transfer_seconds(bytes, s.repo_rate);
      remote += b;
      local += a;
      if (remote < local) {
        local -= a;
        asg.set_comp_local(j, idx, false);
      } else {
        remote -= b;
        asg.set_comp_local(j, idx, true);
      }
    }
    for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
      const std::uint64_t bytes = sys.object_bytes(p.optional[idx].object);
      const double t_local =
          s.ovhd_local + transfer_seconds(bytes, s.local_rate);
      const double t_remote =
          s.ovhd_repo + transfer_seconds(bytes, s.repo_rate);
      asg.set_opt_local(j, idx, t_local <= t_remote);
    }
    j = (j + 1) % static_cast<PageId>(sys.num_pages());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionPageSortBaseline);

void BM_PartitionPageExact(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  PartitionOptions opt;
  opt.exact = true;
  opt.exact_resolution_bytes = static_cast<std::uint64_t>(state.range(0));
  PageId j = 0;
  for (auto _ : state) {
    partition_page_exact(sys, asg, j, opt);
    j = (j + 1) % static_cast<PageId>(sys.num_pages());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionPageExact)->Arg(4096)->Arg(1024);

void BM_DeltaUnmarkComp(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  partition_all(sys, asg);
  const Weights w;
  // Find a marked slot to evaluate repeatedly.
  PageId page = 0;
  std::uint32_t idx = 0;
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    bool found = false;
    for (std::uint32_t x = 0; x < sys.page(j).compulsory.size(); ++x) {
      if (asg.comp_local(j, x)) {
        page = j;
        idx = x;
        found = true;
        break;
      }
    }
    if (found) break;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(unmark_comp_delta(asg, page, idx, w));
  }
}
BENCHMARK(BM_DeltaUnmarkComp);

void BM_DeallocDelta(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  partition_all(sys, asg);
  const Weights w;
  std::vector<std::uint32_t> stored;
  for (std::uint32_t rank = 0; rank < sys.num_referenced(0); ++rank) {
    if (asg.stored_at(0, rank)) stored.push_back(rank);
  }
  std::size_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dealloc_delta(sys, asg, 0, stored[x], w));
    x = (x + 1) % stored.size();
  }
}
BENCHMARK(BM_DeallocDelta);

void BM_ObjectiveCached(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  partition_all(sys, asg);
  const Weights w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(objective_total_cached(asg, w));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sys.num_pages()));
}
BENCHMARK(BM_ObjectiveCached);

void BM_ObjectiveFromScratch(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  partition_all(sys, asg);
  const Weights w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(objective_total(sys, asg, w));
  }
}
BENCHMARK(BM_ObjectiveFromScratch);

// The storage cascade's inner loop: re-partition a page within its stored
// set. Runs against the partitioned assignment with every object allowed,
// so the candidate equals the current marking and the assignment is never
// mutated — the measurement is the pure compute path (greedy over the
// precomputed order plus the evaluation), which is what the cascade pays
// tens of thousands of times per restoration.
void BM_RepartitionWithinStore(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  partition_all(sys, asg);
  const Weights w;
  // One all-allowed rank bitmap per server, built outside the timed loop.
  std::vector<std::vector<std::uint8_t>> allowed(sys.num_servers());
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    allowed[i].assign(sys.num_referenced(i), 1);
  }
  PageId j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        repartition_within_store(sys, asg, j, allowed[sys.page(j).host], w));
    j = (j + 1) % static_cast<PageId>(sys.num_pages());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RepartitionWithinStore);

void BM_StorageRestore(benchmark::State& state) {
  WorkloadParams wl;
  wl.server_proc_capacity = kUnlimited;
  wl.repo_proc_capacity = kUnlimited;
  wl.storage_fraction = static_cast<double>(state.range(0)) / 100.0;
  const SystemModel sys = generate_workload(wl, 42);
  const Weights w;
  for (auto _ : state) {
    state.PauseTiming();
    Assignment asg(sys);
    partition_all(sys, asg);
    state.ResumeTiming();
    restore_storage(sys, asg, w);
  }
}
BENCHMARK(BM_StorageRestore)->Arg(70)->Arg(40)->Unit(benchmark::kMillisecond);

// Eq. 8 restoration in the Figure 2 regime: each server's local processing
// capacity is the given percentage of its all-local load (floored at the
// HTML-only load), restored from the unconstrained partition. 70% is
// Figure 3's local-capacity tick.
void BM_ProcessingRestore(benchmark::State& state) {
  SystemModel sys = paper_system();
  const Assignment all_local = make_local_assignment(sys);
  std::vector<double> caps(sys.num_servers());
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    caps[i] = std::max(sys.page_request_rate(i),
                       static_cast<double>(state.range(0)) / 100.0 *
                           all_local.server_proc_load(i));
  }
  set_processing_capacities(sys, caps);
  const Weights w;
  for (auto _ : state) {
    state.PauseTiming();
    Assignment asg(sys);
    partition_all(sys, asg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(restore_processing(sys, asg, w).unmarked_slots);
  }
}
BENCHMARK(BM_ProcessingRestore)
    ->Arg(50)
    ->Arg(70)
    ->Unit(benchmark::kMillisecond);

void BM_FullPolicyPipeline(benchmark::State& state) {
  WorkloadParams wl;
  wl.storage_fraction = 0.5;
  const SystemModel sys = generate_workload(wl, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_replication_policy(sys).feasible);
  }
}
BENCHMARK(BM_FullPolicyPipeline)->Unit(benchmark::kMillisecond);

// Instrumentation-overhead micros: the same work with the provenance
// recorders on vs. the defaults. The ratio BM_FullPolicyPipelineAudited /
// BM_FullPolicyPipeline is the price of the full audit trail (eviction,
// unmark and off-loading events, headroom stamps, replica degrees); the
// simulate pair prices the flight sampler.
// These are informational (no harness.wall_s series), so the CI perf gate
// never flags them.
void BM_FullPolicyPipelineAudited(benchmark::State& state) {
  WorkloadParams wl;
  wl.storage_fraction = 0.5;
  const SystemModel sys = generate_workload(wl, 42);
  set_recording(recording_mask() | kRecAudit);
  for (auto _ : state) {
    global_audit_log().clear();  // keep memory flat across iterations
    benchmark::DoNotOptimize(run_replication_policy(sys).feasible);
  }
  set_recording(recording_mask() & ~kRecAudit);
  global_audit_log().clear();
}
BENCHMARK(BM_FullPolicyPipelineAudited)->Unit(benchmark::kMillisecond);

void BM_SimulateFlight(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  partition_all(sys, asg);
  SimParams sp;
  sp.requests_per_server = 2000;
  const Simulator sim(sys, sp);
  const bool flight = state.range(0) != 0;
  if (flight) {
    set_recording(recording_mask() | kRecFlight);
    set_flight_sample_every(100);
  }
  for (auto _ : state) {
    global_flight_log().clear();
    benchmark::DoNotOptimize(sim.simulate(asg, 42).page_response.mean());
  }
  set_recording(recording_mask() & ~kRecFlight);
  global_flight_log().clear();
  state.SetLabel(flight ? "flight recorder on (1-in-100)" : "recorder off");
}
BENCHMARK(BM_SimulateFlight)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The ideal-LRU baseline at Table 1 scale (10,000 requests per server, warm
// start, Eq. 8 throttle on) with half the storage.
void BM_SimulateLru(benchmark::State& state) {
  WorkloadParams wl;
  wl.storage_fraction = 0.5;
  const SystemModel sys = generate_workload(wl, 42);
  const Simulator sim(sys, SimParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_lru(42).page_response.mean());
  }
}
BENCHMARK(BM_SimulateLru)->Unit(benchmark::kMillisecond);

void BM_AuditConstraints(benchmark::State& state) {
  const SystemModel& sys = paper_system();
  Assignment asg(sys);
  partition_all(sys, asg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit_constraints(sys, asg).ok());
  }
  state.SetLabel("from-scratch Eq.8/9/10 audit");
}
BENCHMARK(BM_AuditConstraints)->Unit(benchmark::kMillisecond);

// A site's object pool as the generator draws it: Floyd's k-of-n sample,
// here at the medium tier's universe size and a large site's pool.
void BM_SampleWithoutReplacement(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.sample_without_replacement(n, k));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_SampleWithoutReplacement)->Args({600000, 3000});

/// An unfinalized copy of `sys`: the same servers, objects and pages.
SystemModel unfinalized_copy(const SystemModel& sys) {
  SystemModel out;
  for (const Server& s : sys.servers()) out.add_server(s);
  for (const MediaObject& o : sys.objects()) out.add_object(o);
  for (const Page& p : sys.pages()) out.add_page(p);
  out.set_repository(sys.repository());
  return out;
}

// finalize() alone — validation, ranks, the reference CSR and the slot
// caches — on the Table-1 instance (arg 0) and a medium-tier one (arg 1).
// Items are references, so items/s reads as references finalized per second.
void BM_Finalize(benchmark::State& state) {
  const WorkloadParams params =
      state.range(0) == 0 ? WorkloadParams{} : scale_params(ScaleTier::kMedium);
  const SystemModel source = generate_workload(params, 42);
  std::optional<SystemModel> fresh;
  for (auto _ : state) {
    state.PauseTiming();
    fresh.reset();  // the previous copy is freed outside the timed region
    fresh.emplace(unfinalized_copy(source));
    state.ResumeTiming();
    fresh->finalize();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(source.total_comp_slots() +
                                source.total_opt_slots()));
}
BENCHMARK(BM_Finalize)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::bench::micro_main(argc, argv); }
