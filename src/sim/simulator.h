// Response-time simulator (paper Sec. 5.1/5.2).
//
// Replays popularity-driven request streams against a replica placement and
// measures actual response times under per-request network perturbation.
// Three modes:
//   simulate(assignment)   — static placements (ours, Remote, Local): each
//       page request downloads the HTML plus the locally-marked objects from
//       S_i and the rest from R in parallel; response = max of the two
//       pipelines. Optional objects are requested with probability
//       p_interested, each over a fresh connection.
//   simulate_lru()         — the ideal LRU caching/redirection baseline: a
//       size-aware LRU cache per site, misses served by the repository with
//       zero redirection overhead, and the Eq. 8 admission throttle at
//       C(S_i) (requests beyond it are served by R; a site with
//       C(S_i) = kUnlimited is never throttled). One warm pass over the
//       stream precedes the measured one.
//   simulate_threshold()   — the threshold replication baseline of related
//       work, measured in one pass.
// The two dynamic baselines share one replay: each is a site adaptor
// (how an object request is served, which counts fold into SimMetrics)
// driven through the same per-request body. Optional fetches are deferred:
// they wait in an event queue that the time-sorted arrivals merge against
// by peek, so both are handled in true time order. Every mode prices a
// request with the same max-of-pipelines helper.
//
// With a fixed seed the perturbation stream is identical across static
// policies (the draw count per request does not depend on the placement), so
// policy comparisons are paired; the two dynamic baselines share a stream
// too.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/threshold_replication.h"
#include "model/assignment.h"
#include "model/system.h"
#include "sim/perturb.h"
#include "sim/request_gen.h"
#include "util/stats.h"

namespace mmr {

struct SimParams {
  std::uint32_t requests_per_server = 10000;  ///< Table 1
  double p_interested = 0.10;
  double optional_request_fraction = 0.30;
  PerturbParams perturb;
  /// Keep every per-request response sample (enables quantiles/histograms
  /// in SimMetrics::page_samples at O(requests) memory).
  bool capture_samples = false;

  /// Load-dependent service extension (not in the paper, see DESIGN.md):
  /// when a component's placement-implied request load L exceeds its
  /// capacity C, its transfer times stretch by (L/C)^overload_exponent.
  /// Makes Eq. 8/9 violations visible in measured response times instead of
  /// being silently free. 0 disables (paper behaviour).
  double overload_exponent = 0.0;

  void validate() const;
};

struct SimMetrics {
  RunningStats page_response;      ///< per page request (Eq. 5 analogue)
  RunningStats optional_time;      ///< per optional object download
  RunningStats total_per_request;  ///< page response + its optional downloads
  std::vector<RunningStats> per_server_response;
  /// Populated only when SimParams::capture_samples is set.
  SampleSet page_samples;
  std::uint64_t lru_hits = 0;
  std::uint64_t lru_misses = 0;
  std::uint64_t lru_evictions = 0;
  std::uint64_t throttled_requests = 0;  ///< local HTTP reqs pushed to R
  std::uint64_t replica_creations = 0;   ///< threshold baseline only
  std::uint64_t replica_drops = 0;       ///< threshold baseline only

  void merge(const SimMetrics& other);
};

class Simulator {
 public:
  Simulator(const SystemModel& sys, SimParams params);

  const SystemModel& system() const { return *sys_; }
  const SimParams& params() const { return params_; }

  /// Simulates a static placement. Deterministic in `seed`.
  SimMetrics simulate(const Assignment& asg, std::uint64_t seed) const;

  /// Simulates the dynamic ideal-LRU baseline. Deterministic in `seed`.
  SimMetrics simulate_lru(std::uint64_t seed) const;

  /// Simulates the threshold-based dynamic replication baseline (related
  /// work; see baselines/threshold_replication.h). Same stream structure as
  /// the LRU baseline. Deterministic in (seed, params).
  SimMetrics simulate_threshold(std::uint64_t seed,
                                const ThresholdParams& params) const;

 private:
  const SystemModel* sys_;
  SimParams params_;
  RequestGenerator gen_;
};

}  // namespace mmr
