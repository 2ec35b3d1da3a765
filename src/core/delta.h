// O(1) evaluators for the effect of single decision changes on the composite
// objective D, computed from the Assignment's cached pipeline times and the
// model's per-slot transfer-time caches without mutating anything (a caller
// that changes a server's rates must refresh_network_caches() first). These
// drive the greedy constraint-restoration loops and the off-loading
// absorption step.
#pragma once

#include "model/assignment.h"
#include "model/cost.h"
#include "model/system.h"

namespace mmr {

/// Change in D if compulsory slot (j, idx) flips local -> remote.
/// Requires the slot to currently be local.
double unmark_comp_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                         const Weights& w);

/// Change in D if compulsory slot (j, idx) flips remote -> local.
/// Requires the slot to currently be remote.
double mark_comp_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                       const Weights& w);

/// Change in D if optional slot (j, idx) flips local -> remote.
double unmark_opt_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                        const Weights& w);

/// Change in D if optional slot (j, idx) flips remote -> local.
double mark_opt_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                      const Weights& w);

/// Change in D if *every* local mark at server i of the object with rank
/// `rank` on i is cleared (the storage-restoration deallocation move).
/// Touches each referencing page at most once; O(refs of the object on i).
double dealloc_delta(const SystemModel& sys, const Assignment& asg,
                     ServerId i, std::uint32_t rank, const Weights& w);

/// Eq. 8 workload freed at the host if the given slot flips local -> remote
/// (symmetric: the workload added when flipping remote -> local).
double slot_workload(const SystemModel& sys, const PageObjectRef& ref);

/// Eq. 9 repository workload added if the slot flips local -> remote
/// (equivalently removed by remote -> local). Differs from slot_workload for
/// optional slots when optional_scale != 1, mirroring Eq. 8 vs Eq. 9.
double slot_repo_workload(const SystemModel& sys, const PageObjectRef& ref);

}  // namespace mmr
