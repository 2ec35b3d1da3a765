#include "core/policy.h"

#include <algorithm>
#include <sstream>

#include "io/provenance.h"
#include "model/shard.h"
#include "util/metrics.h"
#include "util/recording.h"
#include "util/telemetry.h"
#include "util/table.h"
#include "util/trace.h"

namespace mmr {

namespace {

/// Appends one Eq. 8/10 headroom stamp per server plus the Eq. 9 repository
/// row (server == kInvalidId) for the given phase.
void stamp_headroom(const SystemModel& sys, const Assignment& asg,
                    std::uint8_t phase, std::uint64_t run,
                    const std::string& policy,
                    std::vector<HeadroomStamp>& out) {
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const Server& s = sys.server(i);
    HeadroomStamp h;
    h.run = run;
    h.policy = policy;
    h.phase = phase;
    h.server = i;
    h.proc_load = asg.server_proc_load(i);
    h.proc_capacity = s.proc_capacity;
    h.storage_used = asg.storage_used(i);
    h.storage_capacity = s.storage_capacity;
    out.push_back(std::move(h));
  }
  HeadroomStamp repo;
  repo.run = run;
  repo.policy = policy;
  repo.phase = phase;
  repo.server = kInvalidId;
  repo.proc_load = asg.repo_proc_load();
  repo.proc_capacity = sys.repository().proc_capacity;
  out.push_back(std::move(repo));
}

/// solver.headroom.* gauges from the final assignment: the tightest Eq. 8
/// processing headroom across capacity-limited servers, the tightest Eq. 10
/// storage headroom (bytes, negative when violated), and the Eq. 9
/// repository headroom. Unlimited capacities contribute no gauge.
void record_headroom_gauges(const SystemModel& sys, const Assignment& asg) {
  double proc_min = kUnlimited;
  double storage_min = kUnlimited;
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const Server& s = sys.server(i);
    if (s.proc_capacity != kUnlimited) {
      proc_min =
          std::min(proc_min, s.proc_capacity - asg.server_proc_load(i));
    }
    storage_min =
        std::min(storage_min,
                 static_cast<double>(s.storage_capacity) -
                     static_cast<double>(asg.storage_used(i)));
  }
  if (proc_min != kUnlimited) MMR_GAUGE("solver.headroom.proc_min", proc_min);
  if (storage_min != kUnlimited) {
    MMR_GAUGE("solver.headroom.storage_min_bytes", storage_min);
  }
  if (sys.repository().proc_capacity != kUnlimited) {
    MMR_GAUGE("solver.headroom.repo",
              sys.repository().proc_capacity - asg.repo_proc_load());
  }
}

/// Converts the offload report's negotiation rounds into audit events.
void audit_offload_rounds(const OffloadReport& report, std::uint64_t run,
                          const std::string& policy) {
  if (!report.triggered || report.rounds.empty()) return;
  std::vector<OffloadRoundEvent> rounds;
  std::vector<OffloadAnswerEvent> answers;
  rounds.reserve(report.rounds.size());
  for (std::size_t r = 0; r < report.rounds.size(); ++r) {
    const OffloadRound& round = report.rounds[r];
    OffloadRoundEvent e;
    e.run = run;
    e.policy = policy;
    e.round = static_cast<std::uint32_t>(r);
    e.repo_load_before = round.repo_load_before;
    e.deficit = round.deficit;
    e.l1 = static_cast<std::uint32_t>(round.l1.size());
    e.l2 = static_cast<std::uint32_t>(round.l2.size());
    e.l3 = static_cast<std::uint32_t>(round.l3.size());
    rounds.push_back(std::move(e));
    for (const OffloadAnswer& a : round.answers) {
      OffloadAnswerEvent ae;
      ae.run = run;
      ae.policy = policy;
      ae.round = static_cast<std::uint32_t>(r);
      ae.server = a.server;
      ae.requested = a.requested;
      ae.achieved = a.achieved;
      ae.moved_to_l3 = a.moved_to_l3;
      answers.push_back(std::move(ae));
    }
  }
  global_audit_log().add_offload_rounds(std::move(rounds));
  global_audit_log().add_offload_answers(std::move(answers));
}

/// Final per-object replication degree (objects with no local copy are
/// omitted; the report reconstructs "degree 0" from the model if needed).
void audit_replica_degrees(const SystemModel& sys, const Assignment& asg,
                           std::uint64_t run, const std::string& policy) {
  std::vector<std::uint32_t> degree(sys.num_objects(), 0);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    for (ObjectId k : asg.stored_objects(i)) ++degree[k];
  }
  std::vector<ReplicaDegreeEvent> batch;
  for (ObjectId k = 0; k < sys.num_objects(); ++k) {
    if (degree[k] == 0) continue;
    ReplicaDegreeEvent e;
    e.run = run;
    e.policy = policy;
    e.object = k;
    e.degree = degree[k];
    e.bytes = sys.object_bytes(k);
    batch.push_back(std::move(e));
  }
  global_audit_log().add_replicas(std::move(batch));
}

}  // namespace

PolicyResult run_replication_policy(const SystemModel& sys,
                                    const PolicyOptions& options) {
  PolicyResult result = {Assignment(sys), 0, 0, 0, 0, {}, {}, {}, {}, true};
  const Weights& w = options.weights;

  TraceSpan policy_span("policy");

  // Shard plan (contiguous weight-balanced server groups). Purely an
  // execution grouping: no gauge or artifact depends on the shard count, so
  // metrics snapshots stay byte-identical across shard counts too.
  ShardPlan plan_storage;
  const ShardPlan* plan = nullptr;
  if (options.shards > 0 && sys.num_servers() > 0) {
    plan_storage = make_shard_plan(sys, options.shards);
    plan = &plan_storage;
  }

  // Audit context, captured once: per-phase Eq. 8/9/10 headroom stamps are
  // collected locally and appended as a single batch at the end.
  const bool audit = recording(kRecAudit);
  const std::uint64_t audit_run = audit ? provenance_run_or_zero() : 0;
  const std::string audit_policy = audit ? current_metric_label() : "";
  std::vector<HeadroomStamp> headroom;

  {
    PhaseScope phase("partition");
    partition_all(sys, result.assignment, options.partition, options.pool,
                  plan);
  }
  result.d_after_partition = objective_total_cached(result.assignment, w);
  MMR_GAUGE("solver.d_after_partition", result.d_after_partition);
  if (audit) {
    stamp_headroom(sys, result.assignment, 0, audit_run, audit_policy,
                   headroom);
  }

  // A disabled phase leaves the assignment untouched, so its objective is
  // carried forward instead of re-summing O(pages) terms for nothing.
  if (options.restore_storage_enabled) {
    {
      PhaseScope phase("storage_restore");
      result.storage_report = restore_storage(
          sys, result.assignment, w, options.storage, options.pool, plan);
    }
    result.d_after_storage = objective_total_cached(result.assignment, w);
  } else {
    result.d_after_storage = result.d_after_partition;
  }
  MMR_GAUGE("solver.d_after_storage", result.d_after_storage);
  if (audit && options.restore_storage_enabled) {
    stamp_headroom(sys, result.assignment, 1, audit_run, audit_policy,
                   headroom);
  }

  if (options.restore_processing_enabled) {
    {
      PhaseScope phase("processing_restore");
      result.processing_report = restore_processing(
          sys, result.assignment, w, options.processing, options.pool, plan);
    }
    result.d_after_processing = objective_total_cached(result.assignment, w);
  } else {
    result.d_after_processing = result.d_after_storage;
  }
  MMR_GAUGE("solver.d_after_processing", result.d_after_processing);
  if (audit && options.restore_processing_enabled) {
    stamp_headroom(sys, result.assignment, 2, audit_run, audit_policy,
                   headroom);
  }

  if (options.offload_enabled) {
    {
      PhaseScope phase("offload");
      result.offload_report = offload_repository(
          sys, result.assignment, w, options.offload, options.pool, plan);
    }
    result.d_after_offload = objective_total_cached(result.assignment, w);
  } else {
    result.d_after_offload = result.d_after_processing;
  }
  MMR_GAUGE("solver.d_after_offload", result.d_after_offload);
  if (audit && options.offload_enabled) {
    stamp_headroom(sys, result.assignment, 3, audit_run, audit_policy,
                   headroom);
    audit_offload_rounds(result.offload_report, audit_run, audit_policy);
  }

  if (options.refine_enabled) {
    PhaseScope phase("local_search");
    result.refine_report =
        refine_local_search(sys, result.assignment, w, options.refine);
  }

  record_headroom_gauges(sys, result.assignment);
  if (audit) {
    global_audit_log().add_headroom(std::move(headroom));
    audit_replica_degrees(sys, result.assignment, audit_run, audit_policy);
  }

  result.feasible = result.storage_report.feasible() &&
                    result.processing_report.feasible() &&
                    (!options.offload_enabled ||
                     !result.offload_report.triggered ||
                     result.offload_report.converged);
  if (!result.feasible) MMR_COUNT("solver.infeasible", 1);
  return result;
}

std::string PolicyResult::summary() const {
  std::ostringstream os;
  os << "D after partition:  " << format_double(d_after_partition, 2) << '\n'
     << "D after storage:    " << format_double(d_after_storage, 2) << " ("
     << storage_report.deallocations << " deallocations, "
     << storage_report.repartition_improvements
     << " repartition improvements)\n"
     << "D after processing: " << format_double(d_after_processing, 2) << " ("
     << processing_report.unmarked_slots << " slots unmarked, "
     << processing_report.objects_deallocated << " objects dropped)\n"
     << "D after offload:    " << format_double(d_after_offload, 2) << " ("
     << (offload_report.triggered
             ? std::to_string(offload_report.rounds.size()) + " rounds"
             : std::string("not triggered"))
     << ")\n"
     << (feasible ? "feasible" : "INFEASIBLE") << '\n';
  return os.str();
}

}  // namespace mmr
