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
};

/// A page that lost a local mark of the object being deallocated.
struct AffectedPage {
  PageId page;
  bool improved;  // its repartition found a strictly better marking
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

/// Restoration scratch of server i: the rank-indexed `allowed` bitmap and
/// one fixpoint flag per hosted page.
std::uint64_t scratch_bytes_for(const SystemModel& sys, ServerId i) {
  return static_cast<std::uint64_t>(sys.num_referenced(i)) +
         sys.pages_on_server(i).size();
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

  // Min-heap re-scored at pop: an entry that surfaces with a stale key is
  // pushed back with its current criterion instead of being deallocated.
  // Every stored object has exactly one entry. The "allowed" bitmap is
  // rank-indexed and the fixpoint flags are indexed by page_pos_in_host
  // (O(pool-size + pages), not O(universe)); this routine may run on a pool
  // worker, so all its scratch is local.
  const std::uint32_t n_ranks = sys.num_referenced(i);
  const memacct::Charge scratch_charge(memacct::Category::kSolverScratch,
                                       scratch_bytes_for(sys, i));
  std::vector<std::uint8_t> allowed(n_ranks, 0);
  // fixpoint[pos] != 0: the page's marking equals its repartition candidate
  // for the current bitmap, and no compulsory object of the page has left
  // the bitmap since that candidate was computed.
  std::vector<std::uint8_t> fixpoint(sys.pages_on_server(i).size(), 0);
  std::vector<HeapEntry> heap;
  for (std::uint32_t rank = 0; rank < n_ranks; ++rank) {
    if (!asg.stored_at(i, rank)) continue;
    heap.push_back({criterion_for(sys, asg, i, rank, w, options), rank});
    allowed[rank] = 1;
  }
  std::make_heap(heap.begin(), heap.end(), Later{});

  // Object `rank` leaves the bitmap. A page with a compulsory slot for it
  // now runs its greedy with that slot forced remote, which skips the
  // slot's `local += a; local -= a` round trip and so need not reproduce
  // the old running totals bit for bit: the page leaves its fixpoint.
  auto disallow = [&](std::uint32_t rank) {
    allowed[rank] = 0;
    for (const PageObjectRef& ref : sys.refs_at_rank(i, rank)) {
      if (ref.compulsory) fixpoint[sys.page_pos_in_host(ref.page)] = 0;
    }
  };

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
    const double criterion = criterion_for(sys, asg, i, rank, w, options);
    if (criterion != top.criterion) {
      heap.push_back({criterion, rank});
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
        affected.push_back({ref.page, false});
      }
    }
    ++report.deallocations;
    report.bytes_freed += sys.object_bytes(k);
    MMR_DCHECK(!asg.stored_at(i, rank));
    disallow(rank);

    // Every affected page is repartitioned against the same bitmap before
    // it is refreshed. A page still at its fixpoint is skipped: it lost an
    // optional slot (disallow() cleared the flag of every page holding k as
    // compulsory), and its candidate is its current marking.
    std::uint32_t repartitioned = 0;
    std::uint32_t improved = 0;
    if (options.repartition_after_dealloc) {
      for (AffectedPage& a : affected) {
        ++report.repartitioned_pages;
        ++repartitioned;
        std::uint8_t& flag = fixpoint[sys.page_pos_in_host(a.page)];
        if (flag != 0) {
          ++report.repartitions_skipped;
          continue;
        }
        bool at_fixpoint = false;
        if (repartition_within_store(sys, asg, a.page, allowed, w,
                                     &at_fixpoint)) {
          ++report.repartition_improvements;
          ++improved;
          a.improved = true;
        }
        flag = at_fixpoint ? 1 : 0;
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

    // An improved page changed marks within the stored set, so objects may
    // have left the store: they leave the bitmap too. Any other page lost
    // only k's slot, and k already left.
    for (const AffectedPage& a : affected) {
      if (!a.improved) continue;
      const PageId j = a.page;
      const Page& p = sys.page(j);
      auto refresh = [&](std::uint32_t r) {
        if (allowed[r] != 0 && !asg.stored_at(i, r)) disallow(r);
      };
      for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
        refresh(sys.comp_rank(j, idx));
      }
      for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
        refresh(sys.opt_rank(j, idx));
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
  into.repartitions_skipped += from.repartitions_skipped;
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
  // Deterministic per-server scratch footprint (the largest server's bounds
  // every worker's allocation), observed once per call on the calling
  // thread (pool workers have no per-run metrics scope).
  std::uint64_t scratch_bytes = 0;
  for (std::size_t i = 0; i < servers; ++i) {
    scratch_bytes = std::max(scratch_bytes,
                             scratch_bytes_for(sys, static_cast<ServerId>(i)));
  }
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
