#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "baselines/lru_cache.h"
#include "io/provenance.h"
#include "sim/event_queue.h"
#include "sim/request_recorder.h"
#include "util/check.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mmr {

namespace {

/// The unloaded max-of-pipelines response (Eq. 5 shape) for a request that
/// fetched `local_bytes` locally and `remote_bytes` from the repository,
/// under the server's NOMINAL parameters. The stretch denominator.
double ideal_response(const Server& server, std::uint64_t local_bytes,
                      std::uint64_t remote_bytes,
                      std::uint32_t remote_count) {
  const double t_local =
      server.ovhd_local + transfer_seconds(local_bytes, server.local_rate);
  const double t_remote =
      remote_count == 0
          ? 0.0
          : server.ovhd_repo + transfer_seconds(remote_bytes,
                                                server.repo_rate);
  return std::max(t_local, t_remote);
}

}  // namespace

void SimParams::validate() const {
  MMR_CHECK_MSG(requests_per_server > 0, "requests_per_server must be > 0");
  MMR_CHECK_MSG(p_interested >= 0 && p_interested <= 1, "bad p_interested");
  MMR_CHECK_MSG(optional_request_fraction >= 0 &&
                    optional_request_fraction <= 1,
                "bad optional_request_fraction");
  MMR_CHECK_MSG(token_burst_seconds > 0, "bad token_burst_seconds");
  MMR_CHECK_MSG(overload_exponent >= 0, "bad overload_exponent");
  perturb.validate();
}

void SimMetrics::merge(const SimMetrics& other) {
  page_response.merge(other.page_response);
  optional_time.merge(other.optional_time);
  total_per_request.merge(other.total_per_request);
  if (per_server_response.size() < other.per_server_response.size()) {
    per_server_response.resize(other.per_server_response.size());
  }
  for (std::size_t i = 0; i < other.per_server_response.size(); ++i) {
    per_server_response[i].merge(other.per_server_response[i]);
  }
  for (double x : other.page_samples.samples()) page_samples.add(x);
  lru_hits += other.lru_hits;
  lru_misses += other.lru_misses;
  lru_evictions += other.lru_evictions;
  throttled_requests += other.throttled_requests;
  replica_creations += other.replica_creations;
  replica_drops += other.replica_drops;
}

Simulator::Simulator(const SystemModel& sys, SimParams params)
    : sys_(&sys), params_(params), gen_(sys) {
  params_.validate();
}

namespace {

/// Load-dependent slowdown factor: (load/capacity)^exponent above capacity,
/// 1.0 otherwise (see SimParams::overload_exponent).
double overload_factor(double load, double capacity, double exponent) {
  if (exponent <= 0 || capacity == kUnlimited || capacity <= 0) return 1.0;
  if (load <= capacity) return 1.0;
  return std::pow(load / capacity, exponent);
}

/// How many optional links an interested viewer of page p follows.
std::uint32_t optional_request_count(const Page& p, double fraction) {
  if (p.optional.empty() || fraction <= 0) return 0;
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(
             fraction * static_cast<double>(p.optional.size()))));
}

/// Continuous token bucket enforcing an HTTP req/s ceiling.
class TokenBucket {
 public:
  TokenBucket(double rate, double burst_seconds)
      : rate_(rate),
        burst_(rate == kUnlimited ? kUnlimited : rate * burst_seconds),
        level_(burst_) {}

  /// Tries to take `n` tokens at time t; returns false when exhausted.
  bool take(double n, double t) {
    if (rate_ == kUnlimited) return true;
    refill(t);
    if (level_ >= n) {
      level_ -= n;
      return true;
    }
    return false;
  }

  /// Takes tokens unconditionally (mandatory work, e.g. the HTML document);
  /// the level saturates at zero so mandatory bursts still deplete headroom.
  void force_take(double n, double t) {
    if (rate_ == kUnlimited) return;
    refill(t);
    level_ = std::max(0.0, level_ - n);
  }

 private:
  void refill(double t) {
    if (t > last_) {
      level_ = std::min(burst_, level_ + rate_ * (t - last_));
      last_ = t;
    }
  }

  double rate_;
  double burst_;
  double level_;
  double last_ = 0;
};

}  // namespace

namespace {

/// Byte-accounts the per-request capture buffer (sim.events) at the end of a
/// simulation. The charge is transient — ownership stays with the returned
/// SimMetrics — but it lands in the category peak, honors --mem-budget, and
/// sets the deterministic memory.sim.events gauge (sample count is a pure
/// function of the instance + seed).
void account_sim_samples(const SimMetrics& metrics) {
  const std::uint64_t bytes =
      metrics.page_samples.samples().size() * sizeof(double);
  if (bytes == 0) return;
  memacct::charge(memacct::Category::kSimEvents, bytes);
  memacct::release(memacct::Category::kSimEvents, bytes);
  MMR_GAUGE("memory.sim.events", static_cast<double>(bytes));
}

}  // namespace

SimMetrics Simulator::simulate(const Assignment& asg,
                               std::uint64_t seed) const {
  MMR_CHECK(&asg.system() == sys_);
  const SystemModel& sys = *sys_;
  SimMetrics metrics;
  metrics.per_server_response.resize(sys.num_servers());
  Rng master(seed);
  RequestRecorder rec(FlightMode::kStatic);
  PhaseScope phase("simulate");
  if (phase.span().active() && !rec.policy().empty()) {
    phase.span().arg("policy", rec.policy());
  }

  // The pipeline byte totals are fixed per page for a static placement;
  // precompute them so the per-request work is O(1) plus optional picks.
  struct PageBytes {
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    std::uint32_t remote_count = 0;
  };
  std::vector<PageBytes> totals(sys.num_pages());
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    PageBytes& t = totals[j];
    t.local = p.html_bytes;
    for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
      const std::uint64_t bytes = sys.object_bytes(p.compulsory[idx]);
      if (asg.comp_local(j, idx)) {
        t.local += bytes;
      } else {
        t.remote += bytes;
        ++t.remote_count;
      }
    }
  }

  // Load-dependent slowdowns from the placement-implied component loads.
  const double repo_slow = overload_factor(asg.repo_proc_load(),
                                           sys.repository().proc_capacity,
                                           params_.overload_exponent);

  std::vector<std::uint32_t> picks;  // optional links followed, reused
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    Rng rng = master.split(0x51D0 + i);
    const Server& server = sys.server(i);
    const double local_slow = overload_factor(asg.server_proc_load(i),
                                              server.proc_capacity,
                                              params_.overload_exponent);
    const std::vector<PageRequest> requests =
        gen_.generate(i, params_.requests_per_server, rng);

    std::uint32_t req_index = 0;
    for (const PageRequest& req : requests) {
      const PageId j = req.page;
      const Page& p = sys.page(j);
      const NetworkSample net = perturb(server, params_.perturb, rng);

      const std::uint64_t local_bytes = totals[j].local;
      const std::uint64_t remote_bytes = totals[j].remote;
      const std::uint32_t remote_count = totals[j].remote_count;
      const double t_local =
          net.ovhd_local +
          transfer_seconds(local_bytes, net.local_rate) * local_slow;
      // No repository connection is opened when nothing comes from R.
      const double t_remote =
          remote_count == 0
              ? 0.0
              : net.ovhd_repo +
                    transfer_seconds(remote_bytes, net.repo_rate) * repo_slow;
      const double response = std::max(t_local, t_remote);

      double optional_total = 0;
      std::uint32_t optional_requested = 0;
      if (!p.optional.empty() && rng.bernoulli(params_.p_interested)) {
        const std::uint32_t n_req = optional_request_count(
            p, params_.optional_request_fraction);
        optional_requested = n_req;
        rng.sample_into(static_cast<std::uint32_t>(p.optional.size()), n_req,
                        &picks);
        for (std::uint32_t idx : picks) {
          // Each optional download opens a fresh connection (fresh draw).
          const NetworkSample onet = perturb(server, params_.perturb, rng);
          const std::uint64_t bytes =
              sys.object_bytes(p.optional[idx].object);
          const double t =
              asg.opt_local(j, idx)
                  ? onet.ovhd_local +
                        transfer_seconds(bytes, onet.local_rate) * local_slow
                  : onet.ovhd_repo +
                        transfer_seconds(bytes, onet.repo_rate) * repo_slow;
          metrics.optional_time.add(t);
          optional_total += t;
          rec.count_optional();
        }
      }

      metrics.page_response.add(response);
      metrics.per_server_response[i].add(response);
      metrics.total_per_request.add(response + optional_total);
      if (params_.capture_samples) metrics.page_samples.add(response);
      if (FlightRecord* r = rec.record(
              i, j, req_index++, req.time, t_local, t_remote, response,
              ideal_response(server, local_bytes, remote_bytes,
                             remote_count))) {
        r->local_stretch = local_slow;
        r->repo_stretch = repo_slow;
        r->optional_requested = optional_requested;
        r->optional_time = optional_total;
      }
    }
    rec.flush();
  }
  rec.finish();
  account_sim_samples(metrics);
  return metrics;
}

namespace {

/// Deferred optional-object fetch in the dynamic baselines.
struct OptionalFetch {
  PageId page = kInvalidId;
  std::uint32_t opt_index = 0;
};

/// Replays one server's time-sorted arrivals interleaved, in true time
/// order, with the optional fetches they schedule. Arrivals merge by peek
/// and are never queued: on equal times the arrival goes first, which is
/// the FIFO order of a single queue holding every arrival ahead of any
/// fetch. `on_arrival(request)` may push into `fetches`;
/// `on_fetch(time, fetch)` handles a due fetch.
template <typename OnArrival, typename OnFetch>
void replay_stream(const std::vector<PageRequest>& arrivals,
                   EventQueue<OptionalFetch>& fetches, OnArrival&& on_arrival,
                   OnFetch&& on_fetch) {
  fetches.clear();
  std::size_t next = 0;
  while (next < arrivals.size() || !fetches.empty()) {
    if (next < arrivals.size() &&
        (fetches.empty() || arrivals[next].time <= fetches.peek().time)) {
      on_arrival(arrivals[next++]);
    } else {
      const auto item = fetches.pop();
      on_fetch(item.time, item.event);
    }
  }
}

}  // namespace

SimMetrics Simulator::simulate_lru(std::uint64_t seed) const {
  const SystemModel& sys = *sys_;
  SimMetrics metrics;
  metrics.per_server_response.resize(sys.num_servers());
  Rng master(seed);
  RequestRecorder rec(FlightMode::kLru);
  PhaseScope phase("simulate_lru");
  EventQueue<OptionalFetch> fetches;
  std::vector<std::uint32_t> picks;  // optional links followed, reused

  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const Server& server = sys.server(i);
    const std::uint64_t html = sys.html_bytes_on_server(i);
    const std::uint64_t cache_capacity =
        server.storage_capacity > html ? server.storage_capacity - html : 0;

    const std::uint32_t passes = params_.lru_warm_start ? 2 : 1;
    LruCache cache(cache_capacity);
    TokenBucket bucket(params_.lru_enforce_capacity ? server.proc_capacity
                                                    : kUnlimited,
                       params_.token_burst_seconds);

    for (std::uint32_t pass = 0; pass < passes; ++pass) {
      const bool measure = pass + 1 == passes;
      // Identical arrival/perturbation stream in both passes so the warm
      // pass populates exactly the working set the measured pass touches.
      Rng rng = master.split(0x17B0 + i);
      const std::vector<PageRequest> requests =
          gen_.generate(i, params_.requests_per_server, rng);

      std::uint32_t arrival_index = 0;
      auto on_arrival = [&](const PageRequest& req) {
        const double now = req.time;
        const PageId j = req.page;
        const Page& p = sys.page(j);
        const NetworkSample net = perturb(server, params_.perturb, rng);

        bucket.force_take(1.0, now);  // the HTML document, always local
        std::uint64_t local_bytes = p.html_bytes;
        std::uint64_t remote_bytes = 0;
        std::uint32_t remote_count = 0;
        std::uint32_t req_hits = 0;
        std::uint32_t req_misses = 0;
        std::uint32_t req_throttled = 0;
        for (ObjectId k : p.compulsory) {
          const std::uint64_t bytes = sys.object_bytes(k);
          if (cache.access(k)) {
            ++req_hits;
            if (bucket.take(1.0, now)) {
              local_bytes += bytes;
            } else {
              // Above C(S_i): served by R with zero redirection overhead.
              if (measure) ++metrics.throttled_requests;
              ++req_throttled;
              remote_bytes += bytes;
              ++remote_count;
            }
          } else {
            ++req_misses;
            remote_bytes += bytes;
            ++remote_count;
            cache.insert(k, bytes);
          }
        }
        const double t_local =
            net.ovhd_local + transfer_seconds(local_bytes, net.local_rate);
        const double t_remote =
            remote_count == 0
                ? 0.0
                : net.ovhd_repo +
                      transfer_seconds(remote_bytes, net.repo_rate);
        const double response = std::max(t_local, t_remote);

        // The user inspects the page, then follows optional links; those
        // fetches hit the shared cache later in true time order.
        std::uint32_t optional_requested = 0;
        if (!p.optional.empty() && rng.bernoulli(params_.p_interested)) {
          const std::uint32_t n_req = optional_request_count(
              p, params_.optional_request_fraction);
          optional_requested = n_req;
          rng.sample_into(static_cast<std::uint32_t>(p.optional.size()),
                          n_req, &picks);
          for (std::uint32_t idx : picks) {
            fetches.push(now + response, {j, idx});
          }
        }

        if (!measure) return;
        metrics.page_response.add(response);
        metrics.per_server_response[i].add(response);
        metrics.total_per_request.add(response);
        if (params_.capture_samples) metrics.page_samples.add(response);
        if (FlightRecord* r = rec.record(
                i, j, arrival_index++, now, t_local, t_remote, response,
                ideal_response(server, local_bytes, remote_bytes,
                               remote_count))) {
          r->optional_requested = optional_requested;
          r->cache_hits = req_hits;
          r->cache_misses = req_misses;
          r->throttled = req_throttled;
        }
      };
      auto on_fetch = [&](double now, const OptionalFetch& fetch) {
        const ObjectId k =
            sys.page(fetch.page).optional[fetch.opt_index].object;
        const std::uint64_t bytes = sys.object_bytes(k);
        const NetworkSample net = perturb(server, params_.perturb, rng);
        double t;
        if (cache.access(k) && bucket.take(1.0, now)) {
          t = net.ovhd_local + transfer_seconds(bytes, net.local_rate);
        } else {
          t = net.ovhd_repo + transfer_seconds(bytes, net.repo_rate);
          cache.insert(k, bytes);
        }
        if (measure) {
          metrics.optional_time.add(t);
          rec.count_optional();
        }
      };
      replay_stream(requests, fetches, on_arrival, on_fetch);
    }
    rec.flush();
    metrics.lru_hits += cache.hits();
    metrics.lru_misses += cache.misses();
    metrics.lru_evictions += cache.evictions();
  }
  rec.finish();
  MMR_COUNT("sim.lru.hits", metrics.lru_hits);
  MMR_COUNT("sim.lru.misses", metrics.lru_misses);
  MMR_COUNT("sim.lru.evictions", metrics.lru_evictions);
  MMR_COUNT("sim.throttled_requests", metrics.throttled_requests);
  account_sim_samples(metrics);
  return metrics;
}

SimMetrics Simulator::simulate_threshold(std::uint64_t seed,
                                         const ThresholdParams& params) const {
  params.validate();
  const SystemModel& sys = *sys_;
  SimMetrics metrics;
  metrics.per_server_response.resize(sys.num_servers());
  Rng master(seed);
  RequestRecorder rec(FlightMode::kThreshold);
  PhaseScope phase("simulate_threshold");
  EventQueue<OptionalFetch> fetches;
  std::vector<std::uint32_t> picks;  // optional links followed, reused

  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const Server& server = sys.server(i);
    const std::uint64_t html = sys.html_bytes_on_server(i);
    const std::uint64_t capacity =
        server.storage_capacity > html ? server.storage_capacity - html : 0;
    ThresholdReplicator replicator(capacity, params);

    // Same stream structure as the LRU baseline so comparisons are paired.
    Rng rng = master.split(0x17B0 + i);
    const std::vector<PageRequest> requests =
        gen_.generate(i, params_.requests_per_server, rng);

    std::uint32_t arrival_index = 0;
    auto on_arrival = [&](const PageRequest& req) {
      const double now = req.time;
      const PageId j = req.page;
      const Page& p = sys.page(j);
      const NetworkSample net = perturb(server, params_.perturb, rng);

      std::uint64_t local_bytes = p.html_bytes;
      std::uint64_t remote_bytes = 0;
      std::uint32_t remote_count = 0;
      std::uint32_t req_hits = 0;
      std::uint32_t req_misses = 0;
      for (ObjectId k : p.compulsory) {
        const std::uint64_t bytes = sys.object_bytes(k);
        if (replicator.access(k, bytes, now)) {
          ++req_hits;
          local_bytes += bytes;
        } else {
          ++req_misses;
          remote_bytes += bytes;
          ++remote_count;
        }
      }
      const double t_local =
          net.ovhd_local + transfer_seconds(local_bytes, net.local_rate);
      const double t_remote =
          remote_count == 0
              ? 0.0
              : net.ovhd_repo + transfer_seconds(remote_bytes, net.repo_rate);
      const double response = std::max(t_local, t_remote);
      metrics.page_response.add(response);
      metrics.per_server_response[i].add(response);
      metrics.total_per_request.add(response);
      if (params_.capture_samples) metrics.page_samples.add(response);

      std::uint32_t optional_requested = 0;
      if (!p.optional.empty() && rng.bernoulli(params_.p_interested)) {
        const std::uint32_t n_req = optional_request_count(
            p, params_.optional_request_fraction);
        optional_requested = n_req;
        rng.sample_into(static_cast<std::uint32_t>(p.optional.size()), n_req,
                        &picks);
        for (std::uint32_t idx : picks) {
          fetches.push(now + response, {j, idx});
        }
      }

      if (FlightRecord* r = rec.record(
              i, j, arrival_index++, now, t_local, t_remote, response,
              ideal_response(server, local_bytes, remote_bytes,
                             remote_count))) {
        r->optional_requested = optional_requested;
        r->cache_hits = req_hits;
        r->cache_misses = req_misses;
      }
    };
    auto on_fetch = [&](double now, const OptionalFetch& fetch) {
      const ObjectId k = sys.page(fetch.page).optional[fetch.opt_index].object;
      const std::uint64_t bytes = sys.object_bytes(k);
      const NetworkSample net = perturb(server, params_.perturb, rng);
      const double t =
          replicator.access(k, bytes, now)
              ? net.ovhd_local + transfer_seconds(bytes, net.local_rate)
              : net.ovhd_repo + transfer_seconds(bytes, net.repo_rate);
      metrics.optional_time.add(t);
      rec.count_optional();
    };
    replay_stream(requests, fetches, on_arrival, on_fetch);
    rec.flush();
    metrics.replica_creations += replicator.creations();
    metrics.replica_drops += replicator.drops();
  }
  rec.finish();
  MMR_COUNT("sim.replica_creations", metrics.replica_creations);
  MMR_COUNT("sim.replica_drops", metrics.replica_drops);
  account_sim_samples(metrics);
  return metrics;
}

}  // namespace mmr
