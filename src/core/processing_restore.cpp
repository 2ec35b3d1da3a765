#include "core/processing_restore.h"

#include <algorithm>
#include <cmath>

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

/// A local optional slot and its criterion, which reads only static
/// per-slot values and so is computed once per restoration.
struct OptEntry {
  double criterion;
  std::uint32_t index;
};

/// Each hosted page's local optional slots sorted by (criterion, index):
/// page pos (its page_pos_in_host) owns entries [begin[pos], begin[pos+1]).
/// cursor[pos] skips the slots already unmarked; restoration never re-marks
/// one, so it only moves forward. It cannot live in begin[pos], which is
/// also the end of page pos - 1.
struct OptionalQueues {
  std::vector<OptEntry> entries;
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> cursor;

  std::uint64_t bytes() const {
    return entries.size() * sizeof(OptEntry) +
           (begin.size() + cursor.size()) * sizeof(std::uint32_t);
  }
};

OptionalQueues build_optional_queues(const SystemModel& sys,
                                     const Assignment& asg, ServerId i,
                                     const Weights& w,
                                     const ProcessingRestoreOptions& options) {
  const std::vector<PageId>& own_pages = sys.pages_on_server(i);
  OptionalQueues q;
  // Sized up front: a vector grown by doubling showed in peak RSS.
  std::size_t local = 0;
  for (PageId j : own_pages) local += asg.num_opt_local(j);
  q.entries.reserve(local);
  q.begin.reserve(own_pages.size() + 1);
  q.begin.push_back(0);
  for (PageId j : own_pages) {
    const auto first = static_cast<std::uint32_t>(q.entries.size());
    const Page& p = sys.page(j);
    for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
      const PageObjectRef ref{j, false, idx};
      // A slot that frees no Eq. 8 load is never a candidate.
      if (!asg.opt_local(j, idx) || !(slot_workload(sys, ref) > 0)) continue;
      q.entries.push_back({slot_criterion(sys, asg, ref, w, options), idx});
    }
    std::sort(q.entries.begin() + first, q.entries.end(),
              [](const OptEntry& a, const OptEntry& b) {
                if (a.criterion != b.criterion) {
                  return a.criterion < b.criterion;
                }
                return a.index < b.index;
              });
    q.begin.push_back(static_cast<std::uint32_t>(q.entries.size()));
  }
  q.cursor.assign(q.begin.begin(), q.begin.end() - 1);
  return q;
}

/// Page j's cheapest local compulsory slot, found without scoring every
/// slot. Along comp_order(j) (decreasing size) the transfer times a and b
/// never rise, so lt - a never falls and rt + b never rises: the criterion
/// α1·f·(max(lt - a, rt + b) - max(lt, rt)) / f never rises up to the first
/// position where lt - a > rt + b and never falls after it. Each IEEE step
/// of it is monotone, so this holds for the computed doubles too. The
/// minimum over local slots is thus at the nearest local slot on either
/// side of that crossing; the slots tying with it form a run around them,
/// and the lowest index in that run wins, as in a scan in index order.
bool best_comp_slot(const SystemModel& sys, const Assignment& asg, PageId j,
                    const Weights& w, const ProcessingRestoreOptions& options,
                    SlotEntry* best) {
  // A page with f(W_j) = 0 frees no Eq. 8 load by any unmark.
  if (asg.num_comp_local(j) == 0 || !(slot_workload(sys, {j, true, 0}) > 0)) {
    return false;
  }
  const auto n = static_cast<std::uint32_t>(sys.page(j).compulsory.size());
  const std::uint32_t* order = sys.comp_order(j);
  const double lt = asg.page_local_time(j);
  const double rt = asg.page_remote_time(j);
  // The same doubles unmark_comp_delta compares.
  const auto cross = static_cast<std::uint32_t>(
      std::partition_point(order, order + n,
                           [&](std::uint32_t idx) {
                             return !(lt - sys.comp_local_xfer(j, idx) >
                                      rt + sys.comp_remote_xfer(j, idx));
                           }) -
      order);
  std::uint32_t left = cross;  // the nearest local slot below is left - 1
  while (left > 0 && !asg.comp_local(j, order[left - 1])) --left;
  std::uint32_t right = cross;
  while (right < n && !asg.comp_local(j, order[right])) ++right;

  auto score = [&](std::uint32_t pos) {
    return slot_criterion(sys, asg, {j, true, order[pos]}, w, options);
  };
  const bool has_left = left > 0;
  const bool has_right = right < n;
  const double c_left = has_left ? score(left - 1) : 0;
  const double c_right = has_right ? score(right) : 0;
  const double min = !has_right || (has_left && c_left <= c_right) ? c_left
                                                                   : c_right;
  // Keeps the tying slot with the lowest index, and its own criterion
  // (ties compare equal, but -0 and +0 differ in bits).
  bool found = false;
  auto offer = [&](std::uint32_t pos, double c) {
    if (!found || order[pos] < best->index) {
      *best = {c, j, order[pos], true};
      found = true;
    }
  };
  if (has_left && c_left == min) {
    offer(left - 1, c_left);
    for (std::uint32_t pos = left - 1; pos-- > 0;) {
      if (!asg.comp_local(j, order[pos])) continue;
      const double c = score(pos);
      if (c != min) break;
      offer(pos, c);
    }
  }
  if (has_right && c_right == min) {
    offer(right, c_right);
    for (std::uint32_t pos = right + 1; pos < n; ++pos) {
      if (!asg.comp_local(j, order[pos])) continue;
      const double c = score(pos);
      if (c != min) break;
      offer(pos, c);
    }
  }
  return true;
}

/// Writes page j's first local slot in the total order to *best: its
/// cheapest compulsory slot, unless its cheapest optional slot is strictly
/// cheaper. A slot's criterion reads only its own page's pipeline times, so
/// the result stays valid until page j itself changes. Returns false when
/// the page has no candidate left.
bool best_local_slot(const SystemModel& sys, const Assignment& asg, PageId j,
                     const Weights& w, const ProcessingRestoreOptions& options,
                     OptionalQueues& queues, SlotEntry* best) {
  bool found = best_comp_slot(sys, asg, j, w, options, best);
  const std::uint32_t pos = sys.page_pos_in_host(j);
  std::uint32_t& cur = queues.cursor[pos];
  const std::uint32_t end = queues.begin[pos + 1];
  while (cur < end && !asg.opt_local(j, queues.entries[cur].index)) ++cur;
  if (cur < end &&
      (!found || queues.entries[cur].criterion < best->criterion)) {
    *best = {queues.entries[cur].criterion, j, queues.entries[cur].index,
             false};
    found = true;
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
  OptionalQueues queues = build_optional_queues(sys, asg, i, w, options);
  const memacct::Charge scratch_charge(
      memacct::Category::kSolverScratch,
      own_pages.size() * sizeof(SlotEntry) + queues.bytes());
  std::vector<SlotEntry> heap;
  heap.reserve(own_pages.size());
  for (PageId j : own_pages) {
    SlotEntry e;
    if (best_local_slot(sys, asg, j, w, options, queues, &e)) {
      heap.push_back(e);
    }
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
    if (best_local_slot(sys, asg, top.page, w, options, queues, &next)) {
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
  // best_comp_slot's search needs a criterion that never falls as the
  // page's response time grows.
  MMR_CHECK_MSG(std::isfinite(w.alpha1) && w.alpha1 >= 0,
                "processing restoration needs a finite alpha1 >= 0, got "
                    << w.alpha1);
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
