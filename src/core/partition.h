// The paper's PARTITION algorithm (Sec. 4.2) and variants.
//
// For one page, PARTITION splits the compulsory objects between the local
// server and the repository so that the two parallel download pipelines
// (Eq. 3 and Eq. 4) are as balanced as possible: objects are visited in
// decreasing size order, tentatively added to both pipelines, and kept on
// the side that is cheaper at that point.
//
// Key structural fact (used by the exact variant): with pipelined transfers
// both pipeline lengths depend on the chosen subset only through its total
// byte size, so the exact min-max split is a subset-sum problem over the
// local-bytes total — solved here by a bitset DP at a configurable byte
// resolution.
#pragma once

#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "model/cost.h"
#include "model/system.h"

namespace mmr {

class ThreadPool;
class ShardPlan;

struct PartitionOptions {
  /// If true, mark every optional object local regardless of benefit (the
  /// paper's literal "store all optional objects"); if false, mark an
  /// optional object local only when the local download is not slower
  /// (equivalent under the paper's parameters, where the repository link is
  /// always the slow one, and never worse otherwise).
  bool store_all_optional = false;
  /// Use the exact subset-sum split instead of the greedy.
  bool exact = false;
  /// Byte resolution of the exact DP (sizes are quantized to this grid).
  std::uint64_t exact_resolution_bytes = 1024;
};

/// True iff downloading this optional object locally is not slower than
/// fetching it from the repository (per-object decision; Eq. 6 terms are
/// independent).
bool optional_local_beneficial(const SystemModel& sys, PageId j,
                               std::uint32_t opt_idx);

/// Runs PARTITION for page j: sets X row j and the optional marks. Any
/// previous marks for the page are overwritten.
void partition_page(const SystemModel& sys, Assignment& asg, PageId j,
                    const PartitionOptions& options = {});

/// Exact min-max split of page j's compulsory objects via subset-sum DP.
/// Optional handling is identical to partition_page.
void partition_page_exact(const SystemModel& sys, Assignment& asg, PageId j,
                          const PartitionOptions& options = {});

/// Runs the chosen partition for every page (the unconstrained solution).
/// With a pool, pages are partitioned from all workers (each page's decision
/// bits depend only on the model and land in its own slot rows) and the
/// caches are rebuilt once per server afterwards; the resulting assignment
/// is bit-identical at any thread count. With a shard plan, each shard
/// partitions its own servers' pages and rebuilds its own servers' caches —
/// same bits, same caches, no global barrier between the two steps.
void partition_all(const SystemModel& sys, Assignment& asg,
                   const PartitionOptions& options = {},
                   ThreadPool* pool = nullptr,
                   const ShardPlan* plan = nullptr);

/// Re-partitions page j with the restriction that only objects whose
/// host-server rank r has allowed[r] != 0 may be marked local
/// (storage-neutral re-optimization used after a deallocation; `allowed` is
/// rank-indexed — size num_referenced(host) — so per-server scratch stays
/// O(pool-size) at web scale). Keeps the better of the old and new marking
/// under weights `w`; returns true if the page changed.
///
/// When `at_fixpoint` is given it is set to true iff the page's marking on
/// return equals the candidate for `allowed`: the candidate was applied, or
/// it already was the marking (storage restoration skips later calls that
/// provably repeat this one; docs/ALGORITHM.md, stage 2).
///
/// Precondition: the page's current local marks only reference allowed
/// objects (callers clear the deallocated object's marks before invoking),
/// so restoring the old marking can never grow the stored set.
bool repartition_within_store(const SystemModel& sys, Assignment& asg,
                              PageId j,
                              const std::vector<std::uint8_t>& allowed,
                              const Weights& w, bool* at_fixpoint = nullptr);

/// Contribution of page j to D: alpha1*f*Time(W_j) + alpha2*f*Time(W_j, M),
/// read from the assignment's caches.
double page_contribution(const Assignment& asg, PageId j, const Weights& w);

}  // namespace mmr
