#include "core/partition.h"

#include <algorithm>

#include "model/shard.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace mmr {

namespace {

/// The paper's greedy, verbatim: keep running totals of both pipelines,
/// visit objects in decreasing size order (precomputed at finalize),
/// tentatively add each to both and keep it on the cheaper side. `set` is
/// called exactly once per compulsory slot with the chosen bit, so the same
/// arithmetic drives both the cache-maintaining per-page path and the bulk
/// row-writing path.
template <typename SetComp>
void greedy_split(const SystemModel& sys, PageId j, SetComp&& set) {
  const std::uint32_t n = sys.comp_offset(j + 1) - sys.comp_offset(j);
  const std::uint32_t* order = sys.comp_order(j);
  double local = sys.page_base_local_time(j);
  double remote = sys.page_base_remote_time(j);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t idx = order[i];
    const double a = sys.comp_local_xfer(j, idx);
    const double b = sys.comp_remote_xfer(j, idx);
    remote += b;
    local += a;
    if (remote < local) {
      local -= a;  // download from the repository
      set(idx, false);
    } else {
      remote -= b;  // keep a local copy
      set(idx, true);
    }
  }
}

/// Exact min-max split of page j's compulsory objects via subset-sum DP.
/// Writes the chosen bits into comp_out (slot-aligned, no cache updates).
void exact_split(const SystemModel& sys, PageId j,
                 const PartitionOptions& options, std::uint8_t* comp_out) {
  const Page& p = sys.page(j);
  const Server& s = sys.server(p.host);
  const std::size_t n = p.compulsory.size();
  MMR_CHECK_MSG(options.exact_resolution_bytes > 0,
                "exact_resolution_bytes must be positive");
  if (n == 0) return;

  // Quantize sizes; both pipelines depend on the subset only through its
  // total size, so subset-sum reachability over quantized totals is enough.
  const double res = static_cast<double>(options.exact_resolution_bytes);
  std::vector<std::uint32_t> units(n);
  std::uint64_t total_units = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const auto u = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(sys.object_bytes(p.compulsory[idx])) / res +
               0.5)));
    units[idx] = u;
    total_units += u;
  }

  // dp[i] = reachable sums using the first i items; kept per item for
  // backtracking. Word-packed bitsets.
  const std::size_t words = (total_units + 64) / 64 + 1;
  std::vector<std::vector<std::uint64_t>> dp(n + 1,
                                             std::vector<std::uint64_t>(words));
  dp[0][0] = 1;  // sum 0 reachable
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t shift = units[i];
    const std::size_t word_shift = shift / 64;
    const std::size_t bit_shift = shift % 64;
    auto& cur = dp[i + 1];
    const auto& prev = dp[i];
    for (std::size_t wrd = 0; wrd < words; ++wrd) {
      std::uint64_t shifted = 0;
      if (wrd >= word_shift) {
        shifted = prev[wrd - word_shift] << bit_shift;
        if (bit_shift != 0 && wrd > word_shift) {
          shifted |= prev[wrd - word_shift - 1] >> (64 - bit_shift);
        }
      }
      cur[wrd] = prev[wrd] | shifted;
    }
  }

  // Pick the reachable total minimizing the max of the two pipelines.
  const double l0 = sys.page_base_local_time(j);
  const double r0 = s.ovhd_repo;
  double total_bytes = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    total_bytes += static_cast<double>(sys.object_bytes(p.compulsory[idx]));
  }
  double best_value = 0;
  std::uint64_t best_sum = 0;
  bool have_best = false;
  for (std::uint64_t sum = 0; sum <= total_units; ++sum) {
    if (!((dp[n][sum / 64] >> (sum % 64)) & 1)) continue;
    const double local_bytes = static_cast<double>(sum) * res;
    const double value =
        std::max(l0 + local_bytes / s.local_rate,
                 r0 + std::max(0.0, total_bytes - local_bytes) / s.repo_rate);
    if (!have_best || value < best_value) {
      have_best = true;
      best_value = value;
      best_sum = sum;
    }
  }
  MMR_CHECK(have_best);

  // Backtrack: item i was taken iff best_sum was not reachable without it.
  std::uint64_t sum = best_sum;
  for (std::size_t i = n; i-- > 0;) {
    const bool reachable_without = (dp[i][sum / 64] >> (sum % 64)) & 1;
    if (reachable_without) {
      comp_out[i] = 0;
    } else {
      MMR_DCHECK(sum >= units[i]);
      sum -= units[i];
      comp_out[i] = 1;
    }
  }
  MMR_DCHECK(sum == 0);
}

/// Optional bits for page j straight from the precomputed benefit flags.
template <typename SetOpt>
void mark_optional(const SystemModel& sys, PageId j,
                   const PartitionOptions& options, SetOpt&& set) {
  const Page& p = sys.page(j);
  for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
    set(idx, options.store_all_optional || sys.opt_beneficial(j, idx));
  }
}

/// Bulk path: computes page j's bits directly into its assignment rows
/// (disjoint per page, so safe from concurrent workers; caches are rebuilt
/// by the caller afterwards).
void compute_page_rows(const SystemModel& sys, Assignment& asg, PageId j,
                       const PartitionOptions& options) {
  std::uint8_t* comp = asg.comp_row(j);
  std::uint8_t* opt = asg.opt_row(j);
  if (options.exact) {
    exact_split(sys, j, options, comp);
  } else {
    greedy_split(sys, j,
                 [comp](std::uint32_t idx, bool local) { comp[idx] = local; });
  }
  mark_optional(sys, j, options,
                [opt](std::uint32_t idx, bool local) { opt[idx] = local; });
}

}  // namespace

bool optional_local_beneficial(const SystemModel& sys, PageId j,
                               std::uint32_t opt_idx) {
  MMR_DCHECK(opt_idx < sys.page(j).optional.size());
  return sys.opt_beneficial(j, opt_idx);
}

void partition_page(const SystemModel& sys, Assignment& asg, PageId j,
                    const PartitionOptions& options) {
  if (options.exact) {
    partition_page_exact(sys, asg, j, options);
    return;
  }
  greedy_split(sys, j, [&](std::uint32_t idx, bool local) {
    asg.set_comp_local(j, idx, local);
  });
  mark_optional(sys, j, options, [&](std::uint32_t idx, bool local) {
    asg.set_opt_local(j, idx, local);
  });
}

void partition_page_exact(const SystemModel& sys, Assignment& asg, PageId j,
                          const PartitionOptions& options) {
  const Page& p = sys.page(j);
  thread_local std::vector<std::uint8_t> scratch;
  scratch.assign(p.compulsory.size(), 0);
  exact_split(sys, j, options, scratch.data());
  for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
    asg.set_comp_local(j, idx, scratch[idx] != 0);
  }
  mark_optional(sys, j, options, [&](std::uint32_t idx, bool local) {
    asg.set_opt_local(j, idx, local);
  });
}

void partition_all(const SystemModel& sys, Assignment& asg,
                   const PartitionOptions& options, ThreadPool* pool,
                   const ShardPlan* plan) {
  // Pages own disjoint slot rows, so the decision bits are computed straight
  // into the assignment from as many workers as the pool has; the caches are
  // rebuilt once afterwards (per server, also in parallel). Each page's bits
  // depend only on the model, so the result is identical at any thread
  // count. A shard plan groups that work by contiguous server slices: each
  // shard partitions its own servers' pages and immediately rebuilds those
  // servers' caches, with no global barrier in between — same bits, same
  // caches, at any shard count.
  const std::size_t pages = sys.num_pages();
  ProgressReporter progress("partition", pages);
  if (plan != nullptr && pool != nullptr && pool->thread_count() > 1 &&
      plan->num_shards() > 1) {
    pool->parallel_for(plan->num_shards(), [&](std::size_t s) {
      const auto shard = static_cast<std::uint32_t>(s);
      for (ServerId i = plan->server_begin(shard);
           i < plan->server_end(shard); ++i) {
        for (PageId j : sys.pages_on_server(i)) {
          compute_page_rows(sys, asg, j, options);
          progress.tick();
        }
        asg.recompute_server(i);
      }
    });
  } else if (pool != nullptr && pool->thread_count() > 1 && pages > 1) {
    pool->parallel_for(pages, [&](std::size_t j) {
      compute_page_rows(sys, asg, static_cast<PageId>(j), options);
      progress.tick();
    });
    asg.recompute_caches(pool);
  } else {
    for (std::size_t j = 0; j < pages; ++j) {
      compute_page_rows(sys, asg, static_cast<PageId>(j), options);
      progress.tick();
    }
    asg.recompute_caches(pool);
  }
  MMR_COUNT("solver.partition.pages", sys.num_pages());
  if (options.exact) {
    MMR_COUNT("solver.partition.exact_pages", sys.num_pages());
  }
}

double page_contribution(const Assignment& asg, PageId j, const Weights& w) {
  const double f = asg.system().page(j).frequency;
  return f * (w.alpha1 * asg.page_response_time(j) +
              w.alpha2 * asg.page_optional_time(j));
}

bool repartition_within_store(const SystemModel& sys, Assignment& asg,
                              PageId j,
                              const std::vector<std::uint8_t>& allowed,
                              const Weights& w, bool* at_fixpoint) {
  const Page& p = sys.page(j);
  MMR_DCHECK(allowed.size() == sys.num_referenced(p.host));

  // Compute the candidate marking arithmetically first; the assignment is
  // only touched when the candidate is a strict improvement (this function
  // runs tens of thousands of times inside storage restoration, so the
  // scratch rows are thread_local and every per-slot quantity comes from the
  // model's precomputed flat caches — no allocation, sort or division here).
  thread_local std::vector<std::uint8_t> new_comp;
  thread_local std::vector<std::uint8_t> new_opt;
  new_comp.assign(p.compulsory.size(), 0);
  new_opt.assign(p.optional.size(), 0);

  const std::uint32_t n = static_cast<std::uint32_t>(p.compulsory.size());
  const std::uint32_t* order = sys.comp_order(j);
  double local = sys.page_base_local_time(j);
  double remote = sys.page_base_remote_time(j);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t idx = order[i];
    const double b = sys.comp_remote_xfer(j, idx);
    if (!allowed[sys.comp_rank(j, idx)]) {
      remote += b;
      continue;
    }
    const double a = sys.comp_local_xfer(j, idx);
    remote += b;
    local += a;
    if (remote < local) {
      local -= a;
    } else {
      remote -= b;
      new_comp[idx] = 1;
    }
  }
  double optional_time = 0;
  for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
    const OptionalRef& ref = p.optional[idx];
    if (allowed[sys.opt_rank(j, idx)] != 0 && sys.opt_beneficial(j, idx)) {
      new_opt[idx] = 1;
      optional_time += ref.probability * sys.opt_local_time(j, idx);
    } else {
      optional_time += ref.probability * sys.opt_remote_time(j, idx);
    }
  }
  optional_time *= p.optional_scale;

  const double old_value = page_contribution(asg, j, w);
  const double new_value =
      p.frequency * (w.alpha1 * std::max(local, remote) +
                     w.alpha2 * optional_time);
  // Strict improvement beyond float drift between the incremental caches
  // and this from-scratch evaluation; ties keep the current marking.
  const bool better =
      new_value < old_value - 1e-9 * std::max(1.0, old_value);
  if (!better && at_fixpoint == nullptr) return false;
  // A candidate equal to the current marking changes nothing, whatever the
  // drift says.
  const bool same =
      std::equal(new_comp.begin(), new_comp.end(), asg.comp_row(j)) &&
      std::equal(new_opt.begin(), new_opt.end(), asg.opt_row(j));
  if (at_fixpoint != nullptr) *at_fixpoint = better || same;
  if (!better || same) return false;

  // Apply only the bits that changed.
  for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
    asg.set_comp_local(j, idx, new_comp[idx] != 0);
  }
  for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
    asg.set_opt_local(j, idx, new_opt[idx] != 0);
  }
  return true;
}

}  // namespace mmr
