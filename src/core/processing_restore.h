// Local processing-capacity restoration (paper Sec. 4.2).
//
// While a server exceeds C(S_i) (Eq. 8), greedily flip the (page, object)
// local download whose move to the repository costs the least objective
// damage per unit of workload freed (the paper amortizes the delta over the
// workload difference). An object whose last local mark disappears is
// automatically dropped from the store, freeing storage as a side effect.
// A slot that frees no workload (f(W_j) = 0, or an optional link with
// optional_scale = 0) is never flipped.
//
// Each page's cheapest slot is found without scoring every slot. A
// compulsory slot's criterion, taken along the page's slots in decreasing
// size, never rises up to the size where the two pipelines cross and never
// falls after it, so the minimum lies at the nearest local slot on either
// side; only the slots tying with it are scored beyond those two. An
// optional slot's criterion does not depend on the page's state, so each
// page's optional slots are sorted once. The unmark sequence is the one a
// scan of every local slot gives (ALGORITHM.md stage 3).
#pragma once

#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "model/cost.h"

namespace mmr {

class ThreadPool;
class ShardPlan;

struct ProcessingRestoreOptions {
  /// Divide delta-D by the workload freed (paper's criterion); false = raw
  /// delta-D (ablation).
  bool amortize_by_workload = true;
};

struct ProcessingRestoreReport {
  std::uint32_t unmarked_slots = 0;
  std::uint32_t objects_deallocated = 0;  ///< lost their last local mark
  /// Servers whose mandatory HTML traffic alone exceeds capacity.
  std::vector<ServerId> infeasible_servers;
  bool feasible() const { return infeasible_servers.empty(); }
};

/// Restores Eq. 8 for every server, modifying the assignment in place.
/// Requires a finite w.alpha1 >= 0 (throws CheckError otherwise): the search
/// relies on the criterion growing with the page's response time.
/// With a pool and a shard plan, shards of servers restore concurrently;
/// per-server state is disjoint and reports merge in server order, so the
/// result is bit-identical at any shard/thread count (including none).
ProcessingRestoreReport restore_processing(
    const SystemModel& sys, Assignment& asg, const Weights& w,
    const ProcessingRestoreOptions& options = {}, ThreadPool* pool = nullptr,
    const ShardPlan* plan = nullptr);

}  // namespace mmr
