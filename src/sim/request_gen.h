// Popularity-driven page-request streams.
//
// Per server, pages are drawn from an alias table proportional to f(W_j) and
// arrivals form a Poisson process with the server's aggregate page rate, so
// the request mix honours the hot/cold split of Table 1 and the admission
// throttle sees realistic inter-arrival times.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "model/system.h"
#include "util/rng.h"

namespace mmr {

struct PageRequest {
  double time = 0;  ///< arrival time, seconds from stream start
  PageId page = kInvalidId;
};

class RequestGenerator {
 public:
  /// Builds per-server alias tables from page frequencies.
  explicit RequestGenerator(const SystemModel& sys);

  /// Generates `count` arrivals for server i; deterministic in (i, rng).
  std::vector<PageRequest> generate(ServerId i, std::uint32_t count,
                                    Rng& rng) const;

  /// Batched variant for hot loops: overwrites *out with the next `count`
  /// arrivals continuing from time `t0` (the previous batch's last arrival),
  /// reusing its capacity so steady-state generation allocates nothing.
  /// Returns the last arrival time (pass it back as the next t0). The
  /// concatenation of batches is draw-for-draw identical to one generate()
  /// call of the combined count on the same rng.
  double generate_into(ServerId i, std::uint32_t count, double t0, Rng& rng,
                       std::vector<PageRequest>* out) const;

  /// Total page-request rate of server i (Poisson intensity).
  double arrival_rate(ServerId i) const { return rates_[i]; }

 private:
  const SystemModel* sys_;
  std::vector<AliasTable> tables_;        // per server
  std::vector<std::vector<PageId>> ids_;  // alias index -> PageId
  std::vector<double> rates_;
};

/// How many optional links an interested viewer of page p follows: the
/// given fraction of its links, rounded, and at least one. Shared by the
/// closed-form simulator and the DES so their workloads match.
inline std::uint32_t optional_request_count(const Page& p, double fraction) {
  if (p.optional.empty() || fraction <= 0) return 0;
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(
             fraction * static_cast<double>(p.optional.size()))));
}

}  // namespace mmr
