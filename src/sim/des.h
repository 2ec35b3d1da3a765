// Discrete-event queueing simulator: the "millions of users" mode.
//
// The three closed-form simulate modes (sim/simulator.h) price every request
// with Eq. 5 — servers and the repository never actually queue. The DES
// makes contention real: each site server and the repository is a
// finite-concurrency Station (sim/queueing.h), and a page request becomes
// two jobs raced in parallel over one persistent pipelined connection each:
//
//   * a LOCAL job at the host server — HTML + the compulsory objects the
//     placement marks local, service demand = the Eq. 3 pipeline time from
//     the finalized CSR network caches (Assignment::page_local_time);
//   * a REPOSITORY job at R (only when objects come from R) — demand =
//     the Eq. 4 pipeline time (Assignment::page_remote_time).
//
// Admission is Eq. 8's throttle as an actual bounded queue: a request that
// finds the server's queue full is either redirected to R wholesale (its
// demand becomes the everything-from-R transfer) or rejected, per
// OverflowPolicy. The page's sojourn is max(local done, repo done) −
// arrival; stretch is sojourn over the unloaded Eq. 5 ideal. Optional
// objects are fetched after the local pipeline renders, as separate jobs at
// whichever station the placement puts them.
//
// Execution is three phases, sharded along the PR 8 ShardPlan:
//   A. per-server event loops (shard-parallel): local-station queueing,
//      batched arrival generation (RequestGenerator::generate_into — the
//      hot loop allocates nothing in steady state), and collection of each
//      server's repository job stream;
//   B. canonical repository pass (sequential): each per-server repo stream
//      is born sorted (phase A handles its events in time order), so the
//      streams are k-way merged, not copied and sorted, in (time, server,
//      submit order) (sim/stream_merge.h). Each job's results are written
//      back when it starts: a page's repository completion and wait into
//      its outcome row, an optional fetch's sojourn into a slot reserved in
//      merged order. The merge order is a pure function of phase A's
//      per-server outputs, so results are byte-identical at any shard ×
//      thread count;
//   C. canonical scoring (sequential, server order): sojourn/wait/stretch
//      stats, metrics counters, flight records (FlightMode::kDes) and obs
//      sketch/SLO ingestion — all reading values already computed, in a
//      fixed order.
//
// Every per-server RNG substream is derived exactly like simulate()'s
// (master.split(0x51D0 + i)), so the DES arrival stream pairs request-for-
// request with the closed-form simulator at the same seed — the property
// tests/test_des.cpp cross-validates at near-zero load.
#pragma once

#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "sim/queueing.h"
#include "sim/request_gen.h"
#include "util/stats.h"

namespace mmr {

class ThreadPool;

struct DesParams {
  std::uint32_t requests_per_server = 10000;
  /// Arrival intensity as a multiple of the server's nominal page-request
  /// rate (Σ f(W_j)); nominal inter-arrival gaps are divided by this, so
  /// 2.0 doubles the offered load without changing the page mix.
  double arrival_rate_scale = 1.0;
  std::uint32_t server_concurrency = 8;   ///< connection slots per site
  std::uint32_t repo_concurrency = 64;    ///< connection slots at R
  /// Pending-connection bound per site server (Eq. 8 as a real queue).
  /// The repository queue is unbounded: R is the fallback of last resort.
  std::uint32_t queue_cap = 1024;
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  OverflowPolicy overflow = OverflowPolicy::kRedirect;
  double p_interested = 0.10;             ///< optional-link interest
  double optional_request_fraction = 0.30;
  std::uint32_t batch_size = 4096;        ///< arrivals generated per refill
  /// Execution grouping for phase A; 0 or 1 = unsharded. Results are
  /// byte-identical at any shards × pool size.
  std::uint32_t shards = 0;
  ThreadPool* pool = nullptr;             ///< phase-A workers; null = serial
  bool capture_samples = false;           ///< keep per-request sojourns

  void validate() const;
};

struct DesMetrics {
  RunningStats sojourn;        ///< page arrival → last byte, queueing incl.
  RunningStats wait;           ///< local admission-queue wait per page
  RunningStats stretch;        ///< sojourn / unloaded Eq. 5 ideal
  RunningStats optional_time;  ///< optional-fetch sojourns
  std::vector<RunningStats> per_server_sojourn;
  SampleSet sojourn_samples;   ///< capture_samples only, server order
  SampleSet stretch_samples;   ///< capture_samples only, server order

  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t rejects = 0;      ///< arrivals == completions + rejects
  std::uint64_t redirects = 0;    ///< served wholesale by R (queue full)
  std::uint64_t optional_fetches = 0;
  std::uint64_t optional_rejects = 0;
  std::uint64_t repo_jobs = 0;    ///< jobs the repository station served
  std::uint64_t events = 0;       ///< kernel events processed (all phases)

  std::uint32_t queue_peak = 0;       ///< max pending over all site servers
  std::uint32_t repo_queue_peak = 0;
  double server_busy_s = 0;           ///< Σ intrinsic demand at the sites
  double repo_busy_s = 0;
  double horizon_s = 0;               ///< latest completion (virtual time)
  /// busy / (horizon × total slots); 0 when the horizon is empty.
  double server_utilization = 0;
  double repo_utilization = 0;
};

class DesSimulator {
 public:
  DesSimulator(const SystemModel& sys, DesParams params);

  /// Runs the full three-phase simulation for one placement. Deterministic
  /// in (asg, seed) alone — shards/pool never change a byte of the result,
  /// including the flight and obs artifacts it feeds.
  DesMetrics simulate(const Assignment& asg, std::uint64_t seed) const;

 private:
  const SystemModel* sys_;
  DesParams params_;
  RequestGenerator gen_;
};

}  // namespace mmr
