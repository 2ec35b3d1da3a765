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

/// Transfer-time stretch of each pipeline (SimParams::overload_exponent).
/// The dynamic baselines keep the default 1.0, which leaves every time
/// bit-identical (x * 1.0 == x in IEEE arithmetic).
struct Stretch {
  double local = 1.0;
  double repo = 1.0;
};

/// Bytes one page request fetches over each pipeline: the HTML and the
/// locally served compulsory objects from S_i, the rest from R.
struct PipelineBytes {
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  std::uint32_t remote_count = 0;
};

/// One priced page request: both pipeline times and the response.
struct Pipelines {
  double t_local;
  double t_remote;
  double response;
};

/// Seconds to fetch `bytes` over one connection under conditions `net`:
/// from S_i when `local`, else from R.
double fetch_seconds(const NetworkSample& net, std::uint64_t bytes,
                     bool local, Stretch stretch = {}) {
  return local ? net.ovhd_local +
                     transfer_seconds(bytes, net.local_rate) * stretch.local
               : net.ovhd_repo +
                     transfer_seconds(bytes, net.repo_rate) * stretch.repo;
}

/// Prices one page request under conditions `net` (Eq. 3-5 shape): both
/// pipelines run in parallel and the response is the slower one. No
/// repository connection is opened when nothing comes from R.
Pipelines price_request(const NetworkSample& net, const PipelineBytes& b,
                        Stretch stretch = {}) {
  const double t_local = fetch_seconds(net, b.local, true, stretch);
  const double t_remote =
      b.remote_count == 0 ? 0.0 : fetch_seconds(net, b.remote, false, stretch);
  return {t_local, t_remote, std::max(t_local, t_remote)};
}

/// The unloaded response under the server's NOMINAL parameters: the
/// stretch denominator of a recorded request.
double ideal_response(const Server& server, const PipelineBytes& b) {
  const NetworkSample nominal{.local_rate = server.local_rate,
                              .repo_rate = server.repo_rate,
                              .ovhd_local = server.ovhd_local,
                              .ovhd_repo = server.ovhd_repo};
  return price_request(nominal, b).response;
}

/// The optional links a viewer of page p follows: one p_interested coin,
/// then optional_request_count distinct slots drawn into *picks (left
/// empty when the viewer is not interested).
void draw_optional_links(const Page& p, const SimParams& params, Rng& rng,
                         std::vector<std::uint32_t>* picks) {
  picks->clear();
  if (p.optional.empty() || !rng.bernoulli(params.p_interested)) return;
  rng.sample_into(static_cast<std::uint32_t>(p.optional.size()),
                  optional_request_count(p, params.optional_request_fraction),
                  picks);
}

/// Load-dependent slowdown factor: (load/capacity)^exponent above capacity,
/// 1.0 otherwise (see SimParams::overload_exponent).
double overload_factor(double load, double capacity, double exponent) {
  if (exponent <= 0 || capacity == kUnlimited || capacity <= 0) return 1.0;
  if (load <= capacity) return 1.0;
  return std::pow(load / capacity, exponent);
}

/// Continuous token bucket enforcing an HTTP req/s ceiling, with a burst
/// of one second's worth of capacity.
class TokenBucket {
 public:
  explicit TokenBucket(double rate) : rate_(rate), level_(rate) {}

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
      level_ = std::min(rate_, level_ + rate_ * (t - last_));
      last_ = t;
    }
  }

  double rate_;  ///< also the burst: one second of capacity
  double level_;
  double last_ = 0;
};

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

/// How a dynamic site served one object request.
enum class Served : std::uint8_t {
  kLocal,      ///< from the site's copy
  kThrottled,  ///< the site holds it but is above C(S_i): served by R
  kMiss,       ///< the site lacks it: served by R
};

/// The ideal LRU baseline at one site: a size-aware LRU cache over the
/// storage the HTML leaves free, misses served by R with zero redirection
/// overhead, and the Eq. 8 admission bucket at C(S_i). A warm pass over
/// the same stream precedes the measured one.
class LruSite {
 public:
  static constexpr std::uint32_t kPasses = 2;

  LruSite(std::uint64_t cache_bytes, double proc_capacity)
      : cache_(cache_bytes), bucket_(proc_capacity) {}

  /// The HTML document is always served locally, but it still spends an
  /// HTTP request of C(S_i).
  void serve_html(double now) { bucket_.force_take(1.0, now); }

  Served serve(ObjectId k, std::uint64_t bytes, double now) {
    if (!cache_.access(k)) {
      cache_.insert(k, bytes);
      return Served::kMiss;
    }
    return bucket_.take(1.0, now) ? Served::kLocal : Served::kThrottled;
  }

  void fold(SimMetrics& metrics) const {
    metrics.lru_hits += cache_.hits();
    metrics.lru_misses += cache_.misses();
    metrics.lru_evictions += cache_.evictions();
  }

 private:
  LruCache cache_;
  TokenBucket bucket_;
};

/// The threshold replication baseline at one site (related work; see
/// baselines/threshold_replication.h), measured in a single pass.
class ThresholdSite {
 public:
  static constexpr std::uint32_t kPasses = 1;

  ThresholdSite(std::uint64_t capacity, const ThresholdParams& params)
      : replicator_(capacity, params) {}

  void serve_html(double) {}

  Served serve(ObjectId k, std::uint64_t bytes, double now) {
    return replicator_.access(k, bytes, now) ? Served::kLocal : Served::kMiss;
  }

  void fold(SimMetrics& metrics) const {
    metrics.replica_creations += replicator_.creations();
    metrics.replica_drops += replicator_.drops();
  }

 private:
  ThresholdReplicator replicator_;
};

/// The one replay of the dynamic baselines. Per server it builds a site
/// with make_site(server, spare storage bytes) and replays the server's
/// stream Site::kPasses times; only the last pass is measured. Each page
/// request serves its HTML and compulsory objects through the site and
/// schedules the optional links it follows at its response time; those
/// fetches reach the site later, in true time order (replay_stream).
template <typename MakeSite>
SimMetrics replay_dynamic(const SystemModel& sys, const SimParams& params,
                          const RequestGenerator& gen, std::uint64_t seed,
                          FlightMode mode, MakeSite&& make_site) {
  using Site = decltype(make_site(ServerId{}, std::uint64_t{}));
  SimMetrics metrics;
  metrics.per_server_response.resize(sys.num_servers());
  Rng master(seed);
  RequestRecorder rec(mode);
  EventQueue<OptionalFetch> fetches;
  std::vector<std::uint32_t> picks;  // optional links followed, reused

  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const Server& server = sys.server(i);
    const std::uint64_t html = sys.html_bytes_on_server(i);
    Site site = make_site(
        i, server.storage_capacity > html ? server.storage_capacity - html : 0);

    for (std::uint32_t pass = 0; pass < Site::kPasses; ++pass) {
      const bool measure = pass + 1 == Site::kPasses;
      // Identical arrival/perturbation stream in every pass, so a warm pass
      // populates exactly the working set the measured pass touches, and
      // the same stream across baselines, so comparisons are paired.
      Rng rng = master.split(0x17B0 + i);
      const std::vector<PageRequest> requests =
          gen.generate(i, params.requests_per_server, rng);

      std::uint32_t arrival_index = 0;
      auto on_arrival = [&](const PageRequest& req) {
        const double now = req.time;
        const PageId j = req.page;
        const Page& p = sys.page(j);
        const NetworkSample net = perturb(server, params.perturb, rng);

        site.serve_html(now);
        PipelineBytes bytes{.local = p.html_bytes};
        std::uint32_t misses = 0;
        std::uint32_t throttled = 0;
        for (ObjectId k : p.compulsory) {
          const std::uint64_t b = sys.object_bytes(k);
          const Served served = site.serve(k, b, now);
          misses += served == Served::kMiss;
          throttled += served == Served::kThrottled;
          if (served == Served::kLocal) {
            bytes.local += b;
          } else {
            bytes.remote += b;
            ++bytes.remote_count;
          }
        }
        const Pipelines t = price_request(net, bytes);

        // The user inspects the page, then follows optional links.
        draw_optional_links(p, params, rng, &picks);
        for (std::uint32_t idx : picks) {
          fetches.push(now + t.response, {j, idx});
        }

        if (!measure) return;
        metrics.throttled_requests += throttled;
        metrics.page_response.add(t.response);
        metrics.per_server_response[i].add(t.response);
        metrics.total_per_request.add(t.response);
        if (params.capture_samples) metrics.page_samples.add(t.response);
        if (FlightRecord* r =
                rec.record(i, j, arrival_index++, now, t.t_local, t.t_remote,
                           t.response, ideal_response(server, bytes))) {
          r->optional_requested = static_cast<std::uint32_t>(picks.size());
          r->cache_hits =
              static_cast<std::uint32_t>(p.compulsory.size()) - misses;
          r->cache_misses = misses;
          r->throttled = throttled;
        }
      };
      auto on_fetch = [&](double now, const OptionalFetch& fetch) {
        const ObjectId k =
            sys.page(fetch.page).optional[fetch.opt_index].object;
        const std::uint64_t b = sys.object_bytes(k);
        const NetworkSample net = perturb(server, params.perturb, rng);
        const double t =
            fetch_seconds(net, b, site.serve(k, b, now) == Served::kLocal);
        if (measure) {
          metrics.optional_time.add(t);
          rec.count_optional();
        }
      };
      replay_stream(requests, fetches, on_arrival, on_fetch);
    }
    rec.flush();
    site.fold(metrics);
  }
  rec.finish();
  account_sim_samples(metrics);
  return metrics;
}

}  // namespace

void SimParams::validate() const {
  MMR_CHECK_MSG(requests_per_server > 0, "requests_per_server must be > 0");
  MMR_CHECK_MSG(p_interested >= 0 && p_interested <= 1, "bad p_interested");
  MMR_CHECK_MSG(optional_request_fraction >= 0 &&
                    optional_request_fraction <= 1,
                "bad optional_request_fraction");
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
  std::vector<PipelineBytes> totals(sys.num_pages());
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    PipelineBytes& t = totals[j];
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
  Stretch stretch;
  stretch.repo = overload_factor(asg.repo_proc_load(),
                                 sys.repository().proc_capacity,
                                 params_.overload_exponent);

  std::vector<std::uint32_t> picks;  // optional links followed, reused
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    Rng rng = master.split(0x51D0 + i);
    const Server& server = sys.server(i);
    stretch.local = overload_factor(asg.server_proc_load(i),
                                    server.proc_capacity,
                                    params_.overload_exponent);
    const std::vector<PageRequest> requests =
        gen_.generate(i, params_.requests_per_server, rng);

    std::uint32_t req_index = 0;
    for (const PageRequest& req : requests) {
      const PageId j = req.page;
      const Page& p = sys.page(j);
      const NetworkSample net = perturb(server, params_.perturb, rng);
      const Pipelines t = price_request(net, totals[j], stretch);

      double optional_total = 0;
      draw_optional_links(p, params_, rng, &picks);
      for (std::uint32_t idx : picks) {
        // Each optional download opens a fresh connection (fresh draw).
        const NetworkSample onet = perturb(server, params_.perturb, rng);
        const double ot =
            fetch_seconds(onet, sys.object_bytes(p.optional[idx].object),
                          asg.opt_local(j, idx), stretch);
        metrics.optional_time.add(ot);
        optional_total += ot;
        rec.count_optional();
      }

      metrics.page_response.add(t.response);
      metrics.per_server_response[i].add(t.response);
      metrics.total_per_request.add(t.response + optional_total);
      if (params_.capture_samples) metrics.page_samples.add(t.response);
      if (FlightRecord* r =
              rec.record(i, j, req_index++, req.time, t.t_local, t.t_remote,
                         t.response, ideal_response(server, totals[j]))) {
        r->local_stretch = stretch.local;
        r->repo_stretch = stretch.repo;
        r->optional_requested = static_cast<std::uint32_t>(picks.size());
        r->optional_time = optional_total;
      }
    }
    rec.flush();
  }
  rec.finish();
  account_sim_samples(metrics);
  return metrics;
}

SimMetrics Simulator::simulate_lru(std::uint64_t seed) const {
  PhaseScope phase("simulate_lru");
  SimMetrics metrics = replay_dynamic(
      *sys_, params_, gen_, seed, FlightMode::kLru,
      [&](ServerId i, std::uint64_t cache_bytes) {
        return LruSite(cache_bytes, sys_->server(i).proc_capacity);
      });
  MMR_COUNT("sim.lru.hits", metrics.lru_hits);
  MMR_COUNT("sim.lru.misses", metrics.lru_misses);
  MMR_COUNT("sim.lru.evictions", metrics.lru_evictions);
  MMR_COUNT("sim.throttled_requests", metrics.throttled_requests);
  return metrics;
}

SimMetrics Simulator::simulate_threshold(std::uint64_t seed,
                                         const ThresholdParams& params) const {
  params.validate();
  PhaseScope phase("simulate_threshold");
  SimMetrics metrics = replay_dynamic(
      *sys_, params_, gen_, seed, FlightMode::kThreshold,
      [&](ServerId, std::uint64_t capacity) {
        return ThresholdSite(capacity, params);
      });
  MMR_COUNT("sim.replica_creations", metrics.replica_creations);
  MMR_COUNT("sim.replica_drops", metrics.replica_drops);
  return metrics;
}

}  // namespace mmr
