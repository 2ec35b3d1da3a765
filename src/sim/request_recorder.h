// The one recording point of a simulated page request
// (docs/OBSERVABILITY.md "One request recorder").
//
// Every simulate path (static, LRU, threshold and the DES's phase C)
// acquires one RequestRecorder per call and hands it each measured request.
// The recorder reads the run tag, the policy label and the recording mask
// once, and holds everything a request feeds:
//   * the sim.* counter handles: sim.requests, plus which pipeline bound
//     the response and sim.optional_downloads outside the DES (the DES
//     counts only sim.requests);
//   * the 1-in-N flight sampler, index % N == 0 on the per-server arrival
//     index, and its pending batch (one log append per server);
//   * the call's ObsShard, tagged (run, policy, mode), appended once by
//     finish() so the canonical snapshot merge sees the same shards at any
//     thread count.
// It reads only values the simulation computed anyway and draws from no RNG
// stream, so recording cannot change a single response time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/provenance.h"
#include "obs/obs.h"
#include "util/metrics.h"
#include "util/recording.h"

namespace mmr {

class RequestRecorder {
 public:
  explicit RequestRecorder(FlightMode mode)
      : run_(provenance_run_or_zero()),
        policy_(current_metric_label()),
        mode_(mode),
        sample_every_(flight_sample_every()) {
    if (recording(kRecMetrics)) {
      MetricsRegistry& reg = current_metrics();
      requests_ = &reg.counter("sim.requests");
      if (mode != FlightMode::kDes) {
        local_bound_ = &reg.counter("sim.local_bound");
        remote_bound_ = &reg.counter("sim.remote_bound");
        optional_downloads_ = &reg.counter("sim.optional_downloads");
      }
    }
    if (recording(kRecFlight)) flight_ = &global_flight_log();
    if (recording(kRecObs)) {
      obs_.emplace(obs_config());
      obs_->run = run_;
      obs_->policy = policy_;
      obs_->mode = mode;
    }
  }

  std::uint64_t run() const { return run_; }
  const std::string& policy() const { return policy_; }

  /// The flight sampler's choice for arrival `index` (the DES also samples
  /// its causal trace with it, flight recorder on or off).
  bool sampled(std::uint32_t index) const {
    return index % sample_every_ == 0;
  }

  /// Records one measured request: arrival `index` in `server`'s stream at
  /// time `t`, both pipeline times, the response and the unloaded Eq. 5
  /// response `ideal` (the stretch denominator). `t_remote` doubles as the
  /// request's miss cost. Returns the flight record with its common fields
  /// filled, for the caller's mode-specific fields, when the request is
  /// sampled and the flight recorder is on; null otherwise. The record
  /// stays valid until the next record() or flush().
  FlightRecord* record(ServerId server, PageId page, std::uint32_t index,
                       double t, double t_local, double t_remote,
                       double response, double ideal) {
    if (requests_ != nullptr) {
      requests_->add(1);
      if (local_bound_ != nullptr) {
        (t_local >= t_remote ? local_bound_ : remote_bound_)->add(1);
      }
    }
    if (obs_) {
      obs_->observe(page, server, t, response,
                    ideal > 0 ? response / ideal : 1.0, t_remote);
    }
    if (flight_ == nullptr || !sampled(index)) return nullptr;
    FlightRecord& r = batch_.emplace_back();
    r.run = run_;
    r.policy = policy_;
    r.mode = mode_;
    r.server = server;
    r.page = page;
    r.index = index;
    r.t_local = t_local;
    r.t_remote = t_remote;
    r.response = response;
    r.remote_bound = t_remote > t_local;
    return &r;
  }

  /// Counts one optional-object download.
  void count_optional() {
    if (optional_downloads_ != nullptr) optional_downloads_->add(1);
  }

  /// Appends the pending flight batch; call at the end of each server's
  /// stream.
  void flush() {
    if (flight_ != nullptr && !batch_.empty()) flight_->add(std::move(batch_));
    batch_.clear();
  }

  /// Flushes, then appends the call's ObsShard when it saw a request. Call
  /// once, after the last request.
  void finish() {
    flush();
    if (obs_ && obs_->requests > 0) global_obs_log().add(std::move(*obs_));
    obs_.reset();
  }

 private:
  std::uint64_t run_;
  std::string policy_;
  FlightMode mode_;
  std::uint32_t sample_every_;
  MetricCounter* requests_ = nullptr;
  MetricCounter* local_bound_ = nullptr;   ///< local pipeline set the max
  MetricCounter* remote_bound_ = nullptr;  ///< repository pipeline set it
  MetricCounter* optional_downloads_ = nullptr;
  FlightLog* flight_ = nullptr;
  std::vector<FlightRecord> batch_;
  std::optional<ObsShard> obs_;
};

}  // namespace mmr
