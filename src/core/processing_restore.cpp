#include "core/processing_restore.h"

#include <algorithm>

#include "core/delta.h"
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

/// A page's cheapest local slot: the heap holds one per page.
struct SlotEntry {
  double criterion;
  PageId page;
  std::uint32_t index;
  bool compulsory;
};

/// Heap comparator for the restoration's total order: criterion, then page
/// id, then compulsory before optional, then slot index. Ties never fall to
/// the heap's layout.
struct Later {
  bool operator()(const SlotEntry& a, const SlotEntry& b) const {
    if (a.criterion != b.criterion) return a.criterion > b.criterion;
    if (a.page != b.page) return a.page > b.page;
    if (a.compulsory != b.compulsory) return b.compulsory;
    return a.index > b.index;
  }
};

double slot_criterion(const SystemModel& sys, const Assignment& asg,
                      const PageObjectRef& ref, const Weights& w,
                      const ProcessingRestoreOptions& options) {
  const double delta =
      ref.compulsory ? unmark_comp_delta(asg, ref.page, ref.index, w)
                     : unmark_opt_delta(asg, ref.page, ref.index, w);
  if (!options.amortize_by_workload) return delta;
  const double workload = slot_workload(sys, ref);
  MMR_DCHECK(workload > 0);
  return delta / workload;
}

/// Scores every local slot of page j and writes the first in the total
/// order to *best. A slot's criterion reads only its own page's pipeline
/// times, so the result stays valid until page j itself changes. Returns
/// false when the page has no local slot left.
bool best_local_slot(const SystemModel& sys, const Assignment& asg, PageId j,
                     const Weights& w, const ProcessingRestoreOptions& options,
                     SlotEntry* best) {
  const Page& p = sys.page(j);
  bool found = false;
  // Compulsory slots come first and indices ascend, so a strict comparison
  // keeps the earlier slot on equal criteria.
  auto consider = [&](bool compulsory, std::uint32_t idx) {
    const double c =
        slot_criterion(sys, asg, {j, compulsory, idx}, w, options);
    if (!found || c < best->criterion) {
      *best = {c, j, idx, compulsory};
      found = true;
    }
  };
  for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
    if (asg.comp_local(j, idx)) consider(true, idx);
  }
  for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
    if (asg.opt_local(j, idx)) consider(false, idx);
  }
  return found;
}

/// `audit_run` / `audit_policy` are captured by restore_processing on the
/// calling thread (the run tag and metric label are thread-local, so a pool
/// worker cannot read them itself) and are only meaningful when `audit`.
void restore_server(const SystemModel& sys, Assignment& asg, ServerId i,
                    const Weights& w, const ProcessingRestoreOptions& options,
                    ProcessingRestoreReport& report, bool audit,
                    std::uint64_t audit_run, const std::string& audit_policy) {
  const Server& server = sys.server(i);
  if (within_capacity(asg.server_proc_load(i), server.proc_capacity)) return;

  // Unmark audit events, batched locally (this routine may run on a pool
  // worker); appended to the global log once at the end.
  std::vector<UnmarkEvent> audit_batch;

  // One heap entry per page with a local slot: O(pages-on-server) scratch,
  // sized once. Unmarking a slot changes only its own page's criteria, so
  // the popped page is rescored and pushed back; no entry ever goes stale.
  const std::vector<PageId>& own_pages = sys.pages_on_server(i);
  const memacct::Charge scratch_charge(
      memacct::Category::kSolverScratch, own_pages.size() * sizeof(SlotEntry));
  std::vector<SlotEntry> heap;
  heap.reserve(own_pages.size());
  for (PageId j : own_pages) {
    SlotEntry e;
    if (best_local_slot(sys, asg, j, w, options, &e)) heap.push_back(e);
  }
  std::make_heap(heap.begin(), heap.end(), Later{});

  while (!within_capacity(asg.server_proc_load(i), server.proc_capacity)) {
    if (heap.empty()) {
      report.infeasible_servers.push_back(i);
      MMR_LOG_WARN << "server " << i << " processing unrestorable: mandatory "
                   << "load " << asg.server_proc_load(i) << " > capacity "
                   << server.proc_capacity;
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const SlotEntry top = heap.back();
    heap.pop_back();
    const PageObjectRef ref{top.page, top.compulsory, top.index};

    const Page& p = sys.page(top.page);
    const ObjectId k = top.compulsory ? p.compulsory[top.index]
                                      : p.optional[top.index].object;
    const double load_before = asg.server_proc_load(i);
    asg.set_ref_local(ref, false);
    ++report.unmarked_slots;
    if (!asg.object_stored(i, k)) ++report.objects_deallocated;

    if (audit) {
      UnmarkEvent e;
      e.run = audit_run;
      e.policy = audit_policy;
      e.server = i;
      e.page = top.page;
      e.object = k;
      e.compulsory = top.compulsory;
      e.step = static_cast<std::uint32_t>(audit_batch.size());
      e.criterion = top.criterion;
      e.load_before = load_before;
      e.load_after = asg.server_proc_load(i);
      audit_batch.push_back(std::move(e));
    }

    SlotEntry next;
    if (best_local_slot(sys, asg, top.page, w, options, &next)) {
      heap.push_back(next);
      std::push_heap(heap.begin(), heap.end(), Later{});
    }
  }

  if (audit && !audit_batch.empty()) {
    global_audit_log().add_unmarks(std::move(audit_batch));
  }
}

void merge_reports(ProcessingRestoreReport& into,
                   const ProcessingRestoreReport& from) {
  into.unmarked_slots += from.unmarked_slots;
  into.objects_deallocated += from.objects_deallocated;
  into.infeasible_servers.insert(into.infeasible_servers.end(),
                                 from.infeasible_servers.begin(),
                                 from.infeasible_servers.end());
}

}  // namespace

ProcessingRestoreReport restore_processing(
    const SystemModel& sys, Assignment& asg, const Weights& w,
    const ProcessingRestoreOptions& options, ThreadPool* pool,
    const ShardPlan* plan) {
  // Restoration is independent per server (a server's heap, marks, loads and
  // page pipelines are disjoint from every other server's; the repository
  // load is per-host contributions), so shards of servers run concurrently
  // and the merged result — reports collected per server, merged in fixed
  // server order — is identical at any shard/thread count.
  const std::size_t servers = sys.num_servers();
  std::vector<ProcessingRestoreReport> per_server(servers);
  // Thread-locals (run tag, metric label) read here, on the calling thread,
  // so events recorded from pool workers carry the right attribution.
  const bool audit = recording(kRecAudit);
  const std::uint64_t audit_run = audit ? provenance_run_or_zero() : 0;
  const std::string audit_policy = audit ? current_metric_label() : "";
  ProgressReporter progress("processing_restore", servers);
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
  } else {
    for (std::size_t i = 0; i < servers; ++i) run_one(i);
  }
  ProcessingRestoreReport report;
  for (const ProcessingRestoreReport& r : per_server) {
    merge_reports(report, r);
  }
  MMR_COUNT("solver.processing.unmarked_slots", report.unmarked_slots);
  MMR_COUNT("solver.processing.objects_deallocated",
            report.objects_deallocated);
  MMR_COUNT("solver.processing.infeasible_servers",
            report.infeasible_servers.size());
  return report;
}

}  // namespace mmr
