#include "core/storage_restore.h"

#include <algorithm>

#include "core/delta.h"
#include "core/partition.h"
#include "io/provenance.h"
#include "model/shard.h"
#include "util/check.h"
#include "util/log.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/recording.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace mmr {

namespace {

struct HeapEntry {
  double criterion;
  std::uint32_t rank;  // object's rank on the server under restoration
  std::uint64_t epoch;
};

/// A page that lost a local mark of the object being deallocated.
struct AffectedPage {
  PageId page;
  bool compulsory;  // the cleared slot was compulsory
  bool improved;    // its repartition found a strictly better marking
};

/// Heap comparator for the restoration's total order: criterion, then rank
/// (== object-id order on the server). Ties never fall to the heap's layout,
/// so the pop sequence depends only on the set of entries, not on how the
/// heap was built.
struct Later {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.criterion != b.criterion) return a.criterion > b.criterion;
    return a.rank > b.rank;
  }
};

double criterion_for(const SystemModel& sys, const Assignment& asg,
                     ServerId i, std::uint32_t rank, const Weights& w,
                     const StorageRestoreOptions& options) {
  const double delta = dealloc_delta(sys, asg, i, rank, w);
  if (!options.amortize_by_size) return delta;
  return delta /
         static_cast<double>(sys.object_bytes(sys.object_at_rank(i, rank)));
}

/// `audit_run` / `audit_policy` are captured by restore_storage on the
/// calling thread (the run tag and metric label are thread-local, so a pool
/// worker cannot read them itself) and are only meaningful when `audit`.
void restore_server(const SystemModel& sys, Assignment& asg, ServerId i,
                    const Weights& w, const StorageRestoreOptions& options,
                    StorageRestoreReport& report, bool audit,
                    std::uint64_t audit_run, const std::string& audit_policy) {
  const Server& server = sys.server(i);
  if (asg.storage_used(i) <= server.storage_capacity) return;

  // Eviction audit events, batched locally (this routine may run on a pool
  // worker); appended to the global log once at the end. The per-server step
  // sequence makes the batch sortable into a thread-count-independent order.
  std::vector<EvictionEvent> audit_batch;

  // Lazy min-heap: entries carry the epoch at push time; a dirtied object
  // (epoch bumped) is re-scored only when it reaches the top, which avoids
  // eager re-pushes for objects that never become the minimum. Every stored
  // object has exactly one entry (a stale pop pushes its one replacement).
  // Epochs and the repartition "allowed" bitmap are rank-indexed per-server
  // arrays (O(pool-size), not O(universe)) — this routine may run on a pool
  // worker, so all its scratch is local.
  const std::uint32_t n_ranks = sys.num_referenced(i);
  const memacct::Charge scratch_charge(
      memacct::Category::kSolverScratch,
      static_cast<std::uint64_t>(n_ranks) *
          (sizeof(std::uint64_t) + sizeof(std::uint8_t)));
  std::vector<std::uint64_t> epoch(n_ranks, 0);
  std::vector<std::uint8_t> allowed(n_ranks, 0);
  std::vector<HeapEntry> heap;
  for (std::uint32_t rank = 0; rank < n_ranks; ++rank) {
    if (!asg.stored_at(i, rank)) continue;
    heap.push_back({criterion_for(sys, asg, i, rank, w, options), rank, 0});
    allowed[rank] = 1;
  }
  std::make_heap(heap.begin(), heap.end(), Later{});

  std::vector<AffectedPage> affected;  // reused across deallocations
  while (asg.storage_used(i) > server.storage_capacity) {
    if (heap.empty()) {
      // Nothing left to deallocate: the HTML footprint alone violates the
      // constraint. Record and move on — the audit will flag it too.
      report.infeasible_servers.push_back(i);
      MMR_LOG_WARN << "server " << i << " storage unrestorable: html bytes "
                   << sys.html_bytes_on_server(i) << " > capacity "
                   << server.storage_capacity;
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const HeapEntry top = heap.back();
    heap.pop_back();
    const std::uint32_t rank = top.rank;
    if (!asg.stored_at(i, rank)) continue;  // dropped as a side effect
    if (top.epoch != epoch[rank]) {
      // Stale: re-score now that it surfaced.
      heap.push_back(
          {criterion_for(sys, asg, i, rank, w, options), rank, epoch[rank]});
      std::push_heap(heap.begin(), heap.end(), Later{});
      continue;
    }

    // Deallocate: clear every local mark of k on this server.
    const ObjectId k = sys.object_at_rank(i, rank);
    const std::uint64_t storage_before = asg.storage_used(i);
    affected.clear();
    for (const PageObjectRef& ref : sys.refs_at_rank(i, rank)) {
      if (asg.ref_local(ref)) {
        asg.set_ref_local(ref, false);
        affected.push_back({ref.page, ref.compulsory, false});
      }
    }
    ++report.deallocations;
    report.bytes_freed += sys.object_bytes(k);
    MMR_DCHECK(!asg.stored_at(i, rank));
    allowed[rank] = 0;

    // Every affected page is repartitioned against the same bitmap before
    // any entry is refreshed.
    std::uint32_t repartitioned = 0;
    std::uint32_t improved = 0;
    if (options.repartition_after_dealloc) {
      for (AffectedPage& a : affected) {
        ++report.repartitioned_pages;
        ++repartitioned;
        if (repartition_within_store(sys, asg, a.page, allowed, w)) {
          ++report.repartition_improvements;
          ++improved;
          a.improved = true;
        }
      }
    }

    if (audit) {
      EvictionEvent e;
      e.run = audit_run;
      e.policy = audit_policy;
      e.server = i;
      e.object = k;
      e.step = static_cast<std::uint32_t>(audit_batch.size());
      e.criterion = top.criterion;
      e.bytes = sys.object_bytes(k);
      e.marks_cleared = static_cast<std::uint32_t>(affected.size());
      e.repartitioned_pages = repartitioned;
      e.repartition_improvements = improved;
      e.storage_before = storage_before;
      e.storage_after = asg.storage_used(i);
      audit_batch.push_back(std::move(e));
    }

    // Dirty exactly the objects whose delta-D can have changed. An object's
    // delta-D reads only its own local marks and, for each local compulsory
    // slot, its page's two pipeline times; optional deltas are constant.
    // - An improved page changed marks arbitrarily within the stored set:
    //   refresh the bitmap (objects may have left the store) and dirty every
    //   stored object on it.
    // - Any other page lost only k's slot, so no other object changed its
    //   stored status. Its pipeline times moved iff that slot was
    //   compulsory, which dirties the page's still-local compulsory slots.
    for (const AffectedPage& a : affected) {
      const PageId j = a.page;
      const Page& p = sys.page(j);
      if (a.improved) {
        auto refresh = [&](std::uint32_t r) {
          const bool stored = asg.stored_at(i, r);
          allowed[r] = stored ? 1 : 0;
          if (stored) ++epoch[r];
        };
        for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
          refresh(sys.comp_rank(j, idx));
        }
        for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
          refresh(sys.opt_rank(j, idx));
        }
      } else if (a.compulsory) {
        for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
          if (asg.comp_local(j, idx)) ++epoch[sys.comp_rank(j, idx)];
        }
      }
    }
  }

  if (audit && !audit_batch.empty()) {
    global_audit_log().add_evictions(std::move(audit_batch));
  }
}

void merge_reports(StorageRestoreReport& into,
                   const StorageRestoreReport& from) {
  into.deallocations += from.deallocations;
  into.repartitioned_pages += from.repartitioned_pages;
  into.repartition_improvements += from.repartition_improvements;
  into.bytes_freed += from.bytes_freed;
  into.infeasible_servers.insert(into.infeasible_servers.end(),
                                 from.infeasible_servers.begin(),
                                 from.infeasible_servers.end());
}

}  // namespace

StorageRestoreReport restore_storage(const SystemModel& sys, Assignment& asg,
                                     const Weights& w,
                                     const StorageRestoreOptions& options,
                                     ThreadPool* pool, const ShardPlan* plan) {
  // Restoration is independent per server: a server's heap, marks, storage
  // cache and page pipelines are all disjoint from every other server's, and
  // the assignment keeps the repository load as per-host contributions, so
  // workers never write a shared location. Reports are collected per server
  // and merged in fixed server order, making the result (assignment bits,
  // report, and every cached total) identical at any thread count.
  const std::size_t servers = sys.num_servers();
  std::vector<StorageRestoreReport> per_server(servers);
  // Thread-locals (run tag, metric label) read here, on the calling thread,
  // so events recorded from pool workers carry the right attribution.
  const bool audit = recording(kRecAudit);
  const std::uint64_t audit_run = audit ? provenance_run_or_zero() : 0;
  const std::string audit_policy = audit ? current_metric_label() : "";
  // Deterministic per-server scratch footprint (largest server's rank count
  // bounds every worker's allocation), observed once per call on the calling
  // thread (pool workers have no per-run metrics scope).
  std::uint64_t max_ranks = 0;
  for (std::size_t i = 0; i < servers; ++i) {
    max_ranks = std::max<std::uint64_t>(
        max_ranks, sys.num_referenced(static_cast<ServerId>(i)));
  }
  const std::uint64_t scratch_bytes =
      max_ranks * (sizeof(std::uint64_t) + sizeof(std::uint8_t));
  MMR_GAUGE("memory.solver.scratch", static_cast<double>(scratch_bytes));
  ProgressReporter progress("storage_restore", servers);
  auto run_one = [&](std::size_t i) {
    restore_server(sys, asg, static_cast<ServerId>(i), w, options,
                   per_server[i], audit, audit_run, audit_policy);
    progress.tick();
  };
  if (plan != nullptr && pool != nullptr && pool->thread_count() > 1 &&
      plan->num_shards() > 1) {
    pool->parallel_for(plan->num_shards(), [&](std::size_t s) {
      const auto shard = static_cast<std::uint32_t>(s);
      for (ServerId i = plan->server_begin(shard);
           i < plan->server_end(shard); ++i) {
        run_one(i);
      }
    });
  } else if (pool != nullptr && pool->thread_count() > 1 && servers > 1) {
    pool->parallel_for(servers, run_one);
  } else {
    for (std::size_t i = 0; i < servers; ++i) run_one(i);
  }
  StorageRestoreReport report;
  for (const StorageRestoreReport& r : per_server) merge_reports(report, r);
  MMR_COUNT("solver.storage.deallocations", report.deallocations);
  MMR_COUNT("solver.storage.repartitioned_pages", report.repartitioned_pages);
  MMR_COUNT("solver.storage.repartition_improvements",
            report.repartition_improvements);
  MMR_COUNT("solver.storage.bytes_freed", report.bytes_freed);
  MMR_COUNT("solver.storage.infeasible_servers",
            report.infeasible_servers.size());
  return report;
}

}  // namespace mmr
