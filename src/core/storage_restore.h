// Storage-constraint restoration (paper Sec. 4.2, second half).
//
// While a server exceeds its storage capacity (Eq. 10), greedily deallocate
// the stored object whose removal hurts the objective least — the criterion
// amortizes the objective damage over the object's size ("more judicious
// over large objects"). After each deallocation the affected pages are
// re-partitioned within the remaining stored set, exploiting objects that
// are stored but were not marked for local download.
//
// Implementation: one min-heap per server keyed by (delta-D/size, rank),
// re-scored at pop: an entry whose key no longer equals its object's
// criterion is pushed back with the current value, so no per-object epochs
// or dirtying are needed. A per-page fixpoint flag skips the repartitions
// that provably return "no change" (docs/ALGORITHM.md, stage 2).
#pragma once

#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "model/cost.h"

namespace mmr {

class ThreadPool;
class ShardPlan;

struct StorageRestoreOptions {
  /// Divide delta-D by the object size (paper's amortized criterion). When
  /// false, use raw delta-D (ablation A2).
  bool amortize_by_size = true;
  /// Re-partition pages that lost a local object (the paper's cascade).
  bool repartition_after_dealloc = true;
};

struct StorageRestoreReport {
  std::uint32_t deallocations = 0;
  std::uint32_t repartitioned_pages = 0;
  std::uint32_t repartition_improvements = 0;
  /// Repartitions counted in repartitioned_pages but not run, because the
  /// page was at its fixpoint (report-only; the result is the same).
  std::uint32_t repartitions_skipped = 0;
  std::uint64_t bytes_freed = 0;  ///< storage released by deallocations
  /// Servers whose HTML alone exceeds capacity (constraint unrestorable).
  std::vector<ServerId> infeasible_servers;
  bool feasible() const { return infeasible_servers.empty(); }
};

/// Restores Eq. 10 for every server. The assignment is modified in place;
/// on return every feasible server satisfies its storage constraint. With a
/// pool, servers restore concurrently (their heaps, marks and caches are
/// disjoint and the repository load is kept per host); the resulting
/// assignment and report are bit-identical at any thread count. A shard
/// plan groups the servers into contiguous slices (one task per shard, its
/// servers in order) — same result, coarser scheduling for huge fleets.
StorageRestoreReport restore_storage(const SystemModel& sys, Assignment& asg,
                                     const Weights& w,
                                     const StorageRestoreOptions& options = {},
                                     ThreadPool* pool = nullptr,
                                     const ShardPlan* plan = nullptr);

}  // namespace mmr
