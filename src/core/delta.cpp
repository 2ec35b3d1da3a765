#include "core/delta.h"

#include <algorithm>

#include "util/check.h"

namespace mmr {

namespace {

/// D1 contribution change for page j when the local/remote pipeline times
/// move from (lt, rt) to (lt2, rt2).
double response_delta(double f, double alpha1, double lt, double rt,
                      double lt2, double rt2) {
  return alpha1 * f * (std::max(lt2, rt2) - std::max(lt, rt));
}

}  // namespace

double unmark_comp_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                         const Weights& w) {
  MMR_DCHECK(asg.comp_local(j, idx));
  const SystemModel& sys = asg.system();
  const double lt = asg.page_local_time(j);
  const double rt = asg.page_remote_time(j);
  return response_delta(sys.page(j).frequency, w.alpha1, lt, rt,
                        lt - sys.comp_local_xfer(j, idx),
                        rt + sys.comp_remote_xfer(j, idx));
}

double mark_comp_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                       const Weights& w) {
  MMR_DCHECK(!asg.comp_local(j, idx));
  const SystemModel& sys = asg.system();
  const double lt = asg.page_local_time(j);
  const double rt = asg.page_remote_time(j);
  return response_delta(sys.page(j).frequency, w.alpha1, lt, rt,
                        lt + sys.comp_local_xfer(j, idx),
                        rt - sys.comp_remote_xfer(j, idx));
}

namespace {

/// D2 contribution change for flipping optional slot (j, idx); sign = +1 for
/// remote -> local, -1 for local -> remote.
double opt_flip_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                      const Weights& w, double sign) {
  const SystemModel& sys = asg.system();
  const Page& p = sys.page(j);
  return sign * w.alpha2 * p.frequency * p.optional_scale *
         p.optional[idx].probability *
         (sys.opt_local_time(j, idx) - sys.opt_remote_time(j, idx));
}

}  // namespace

double unmark_opt_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                        const Weights& w) {
  MMR_DCHECK(asg.opt_local(j, idx));
  return opt_flip_delta(asg, j, idx, w, -1.0);
}

double mark_opt_delta(const Assignment& asg, PageId j, std::uint32_t idx,
                      const Weights& w) {
  MMR_DCHECK(!asg.opt_local(j, idx));
  return opt_flip_delta(asg, j, idx, w, +1.0);
}

double dealloc_delta(const SystemModel& sys, const Assignment& asg,
                     ServerId i, std::uint32_t rank, const Weights& w) {
  double delta = 0;
  for (const PageObjectRef& ref : sys.refs_at_rank(i, rank)) {
    if (!asg.ref_local(ref)) continue;
    // A page references an object at most once (validated at finalize), so
    // per-slot deltas over distinct pages are independent and additive.
    delta += ref.compulsory ? unmark_comp_delta(asg, ref.page, ref.index, w)
                            : unmark_opt_delta(asg, ref.page, ref.index, w);
  }
  return delta;
}

double slot_workload(const SystemModel& sys, const PageObjectRef& ref) {
  const Page& p = sys.page(ref.page);
  if (ref.compulsory) return p.frequency;
  return p.frequency * p.optional_scale * p.optional[ref.index].probability;
}

double slot_repo_workload(const SystemModel& sys, const PageObjectRef& ref) {
  const Page& p = sys.page(ref.page);
  if (ref.compulsory) return p.frequency;
  return p.frequency * p.optional[ref.index].probability;
}

}  // namespace mmr
