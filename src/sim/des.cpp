#include "sim/des.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "io/provenance.h"
#include "model/shard.h"
#include "obs/timeseries.h"
#include "sim/event_queue.h"
#include "sim/request_recorder.h"
#include "sim/stream_merge.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mmr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// RepoJob owner for optional fetches (no outcome row to write back to).
constexpr std::uint32_t kOptionalOwner = 0xFFFFFFFFu;
/// Station tag marking an optional-fetch job. At R the tag is this plus the
/// job's sojourn slot (phase B).
constexpr std::uint64_t kOptionalTag = 1ull << 32;

/// Per-page service demands, fixed for a static placement. All four come
/// from the finalized CSR caches (the assignment keeps Eq. 3/4 current
/// incrementally), so the hot loop never touches per-object data.
struct PageService {
  double local = 0;       ///< Eq. 3 demand of the local pipeline
  double remote = 0;      ///< Eq. 4 demand (meaningful iff remote_count > 0)
  double all_remote = 0;  ///< redirect demand: everything via R
  double ideal = 0;       ///< unloaded Eq. 5 (stretch denominator)
  std::uint32_t remote_count = 0;
};

// Outcome flags.
constexpr std::uint8_t kRedirected = 2;  ///< local queue full → all via R
constexpr std::uint8_t kRejected = 4;    ///< local queue full → dropped

/// One page request's life, written by phases A/B and scored in phase C.
/// Phase B writes repo_done/repo_wait when the page's repository job starts.
struct Outcome {
  double arrival = 0;
  double local_done = 0;  ///< local-pipeline completion (0 when no local job)
  double repo_done = 0;   ///< repository completion (0 when no repo job)
  float wait = 0;         ///< local admission-queue wait
  float repo_wait = 0;    ///< repository-queue wait (0 when no repo job)
  PageId page = kInvalidId;
  std::uint32_t depth = 0;  ///< local queue depth observed at arrival
  std::uint8_t flags = 0;
};

/// One job for the repository station, collected per server in phase A in
/// submit order and merged canonically in phase B.
struct RepoJob {
  double submit = 0;
  double service = 0;
  std::uint32_t owner = kOptionalOwner;  ///< global request index
};

struct LocalEvent {
  std::uint32_t owner = 0;  ///< request index within the server
  bool page_done = false;   ///< false: optional fetch finished
};

/// Phase-A outputs that are per-server scalars/stats; merged in canonical
/// server order on the main thread.
struct ServerPartial {
  RunningStats optional_local_time;
  std::uint64_t optional_fetches = 0;
  std::uint64_t optional_rejects = 0;
  std::uint64_t repo_optional = 0;  ///< optional jobs in the repo stream
  std::uint64_t events = 0;
  std::uint32_t queue_peak = 0;
  double busy_s = 0;
  double horizon = 0;  ///< latest local completion
};

/// Scratch reused across every server of one shard, so the per-server loop
/// allocates nothing in steady state.
struct ShardScratch {
  Station station{StationConfig{}};
  EventQueue<LocalEvent> queue;
  std::vector<PageRequest> batch;
  std::vector<std::uint32_t> picks;
};

}  // namespace

void DesParams::validate() const {
  MMR_CHECK_MSG(requests_per_server > 0, "requests_per_server must be > 0");
  MMR_CHECK_MSG(arrival_rate_scale > 0, "arrival_rate_scale must be > 0");
  MMR_CHECK_MSG(server_concurrency > 0, "server_concurrency must be > 0");
  MMR_CHECK_MSG(repo_concurrency > 0, "repo_concurrency must be > 0");
  MMR_CHECK_MSG(batch_size > 0, "batch_size must be > 0");
  MMR_CHECK_MSG(p_interested >= 0 && p_interested <= 1, "bad p_interested");
  MMR_CHECK_MSG(
      optional_request_fraction >= 0 && optional_request_fraction <= 1,
      "bad optional_request_fraction");
}

DesSimulator::DesSimulator(const SystemModel& sys, DesParams params)
    : sys_(&sys), params_(params), gen_(sys) {
  params_.validate();
}

DesMetrics DesSimulator::simulate(const Assignment& asg,
                                  std::uint64_t seed) const {
  MMR_CHECK(&asg.system() == sys_);
  const SystemModel& sys = *sys_;
  const std::uint32_t n = sys.num_servers();
  const std::uint64_t per_server = params_.requests_per_server;
  MMR_CHECK_MSG(static_cast<std::uint64_t>(n) * per_server < kOptionalOwner,
                "too many total requests for 32-bit request indices");

  RequestRecorder rec(FlightMode::kDes);
  PhaseScope phase("simulate_des");
  if (phase.span().active() && !rec.policy().empty()) {
    phase.span().arg("policy", rec.policy());
  }

  DesMetrics m;
  m.per_server_sojourn.resize(n);

  // Per-page demands from the assignment's incremental Eq. 3/4 caches. The
  // redirect demand (everything from R) needs the total compulsory bytes,
  // one startup pass over the CSR.
  std::vector<PageService> services(sys.num_pages());
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    PageService& svc = services[j];
    const Page& p = sys.page(j);
    svc.local = asg.page_local_time(j);
    svc.remote = asg.page_remote_time(j);
    svc.remote_count =
        static_cast<std::uint32_t>(p.compulsory.size()) - asg.num_comp_local(j);
    svc.ideal = std::max(svc.local, svc.remote_count > 0 ? svc.remote : 0.0);
    std::uint64_t bytes = p.html_bytes;
    for (ObjectId k : p.compulsory) bytes += sys.object_bytes(k);
    const Server& server = sys.server(p.host);
    svc.all_remote =
        server.ovhd_repo + transfer_seconds(bytes, server.repo_rate);
  }

  // Per-server RNG substreams: arrival streams split exactly like the
  // closed-form simulate() (pairs request-for-request at the same seed);
  // optional-link draws come from an independent stream so the arrival
  // stream is invariant across placements.
  Rng master(seed);
  std::vector<Rng> arrival_rngs;
  arrival_rngs.reserve(n);
  for (ServerId i = 0; i < n; ++i) {
    arrival_rngs.push_back(master.split(0x51D0 + i));
  }

  // Outcome storage is the dominant allocation: charge it up front so a
  // --mem-budget aborts before the fill, with the deterministic size.
  const std::uint64_t total_requests = static_cast<std::uint64_t>(n) *
                                       per_server;
  const std::uint64_t outcome_bytes = total_requests * sizeof(Outcome);
  memacct::Charge outcome_charge(memacct::Category::kSimDes, outcome_bytes);
  std::vector<Outcome> outcomes(total_requests);
  std::vector<std::vector<RepoJob>> repo_streams(n);
  std::vector<ServerPartial> partials(n);

  const double inv_scale = 1.0 / params_.arrival_rate_scale;
  const StationConfig server_cfg{params_.server_concurrency,
                                 params_.queue_cap, params_.discipline};

  // Queue-dynamics collection (obs/timeseries.h). One shard per simulate
  // call; every station row is written by exactly one event loop (phase A
  // owns each server, phase B the repository), so workers never share a row.
  std::optional<TimeseriesShard> ts;
  if (recording(kRecTimeseries)) {
    ts.emplace(timeseries_config(), n);
    ts->run = rec.run();
    ts->policy = rec.policy();
    ts->mode = FlightMode::kDes;
    ts->server_concurrency = params_.server_concurrency;
    ts->repo_concurrency = params_.repo_concurrency;
  }

  // --progress ETA for the DES: virtual time is the natural progress clock
  // (events per request vary), so each server reports permille of its
  // expected horizon, estimated from its Poisson arrival intensity.
  std::optional<ProgressReporter> progress;
  std::vector<double> est_horizon;
  if (recording(kRecProgress)) {
    progress.emplace("simulate_des", static_cast<std::uint64_t>(n) * 1000);
    est_horizon.resize(n);
    for (ServerId i = 0; i < n; ++i) {
      const double rate = gen_.arrival_rate(i) * params_.arrival_rate_scale;
      est_horizon[i] =
          rate > 0 ? static_cast<double>(per_server) / rate : 0.0;
    }
  }

  // ---- Phase A: per-server event loops (shard-parallel) -------------------
  auto run_server = [&](ServerId i, ShardScratch& scratch) {
    Rng arrival_rng = arrival_rngs[i];
    Rng opt_rng(mix_seed(mix_seed(seed, 0xDE5C0DEull), i));
    Station& st = scratch.station;
    st.reset(server_cfg);
    EventQueue<LocalEvent>& q = scratch.queue;
    q.clear();
    Outcome* out = outcomes.data() + static_cast<std::uint64_t>(i) *
                                         per_server;
    std::vector<RepoJob>& repo = repo_streams[i];
    ServerPartial& part = partials[i];
    const std::uint32_t global_base = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(i) * per_server);
    StationSeries* ser = ts ? &ts->server(i) : nullptr;
    const double est = progress ? est_horizon[i] : 0.0;
    std::uint32_t permille_done = 0;

    // Queue depth at an event boundary. queue_len/in_service must
    // partition occupancy: under quasi-PS in_service() is total occupancy
    // and queue_len() the excess beyond the slots, so the slots' share is
    // the difference (obs/timeseries.h sample()).
    auto qdepth = [&]() {
      const std::uint32_t qlen = st.queue_len();
      const std::uint32_t infl =
          params_.discipline == QueueDiscipline::kPs
              ? st.in_service() - qlen
              : st.in_service();
      return std::pair<std::uint32_t, std::uint32_t>(qlen, infl);
    };
    auto ts_sample = [&](double t) {
      if (ser == nullptr) return;
      const auto [qlen, infl] = qdepth();
      ser->sample(t, qlen, infl);
    };

    // Starts a queued job that on_complete() just popped.
    auto queued_started = [&](const Station::Started& s, double now) {
      if (ser != nullptr) ser->on_started(now, s.wait, s.done);
      if (s.tag < kOptionalTag) {
        Outcome& o = out[s.tag];
        o.local_done = s.done;
        o.wait = static_cast<float>(s.wait);
        q.push(s.done, {static_cast<std::uint32_t>(s.tag), true});
      } else {
        part.optional_local_time.add(s.wait + (s.done - now));
        q.push(s.done, {0, false});
      }
    };

    std::uint32_t generated = 0;   // arrivals drawn so far
    std::uint32_t consumed = 0;    // arrivals handled so far
    std::size_t bi = 0;            // cursor into the current batch
    double tgen = 0;               // generator clock (nominal time)
    scratch.batch.clear();

    while (consumed < per_server || !q.empty()) {
      if (bi == scratch.batch.size() && generated < per_server) {
        const auto want = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            params_.batch_size, per_server - generated));
        tgen = gen_.generate_into(i, want, tgen, arrival_rng, &scratch.batch);
        generated += want;
        bi = 0;
      }
      const double t_arr = bi < scratch.batch.size()
                               ? scratch.batch[bi].time * inv_scale
                               : kInf;
      const double t_ev = q.empty() ? kInf : q.peek().time;

      if (t_arr <= t_ev) {
        // Page arrival: admission at the local station, repo job raced in
        // parallel over its own connection.
        const PageId j = scratch.batch[bi].page;
        ++bi;
        const std::uint32_t idx = consumed++;
        ++part.events;
        Outcome& o = out[idx];
        o.arrival = t_arr;
        o.page = j;
        o.depth = st.queue_len();
        const PageService& svc = services[j];
        // Each offer outcome gets one fused collection call (arrival +
        // outcome + depth sample in a single window lookup); the depth is
        // read after the offer, as the granular sequence did.
        Station::Started s;
        switch (st.offer(t_arr, svc.local, idx, &s)) {
          case Station::Offer::kStarted:
            o.local_done = s.done;
            o.wait = static_cast<float>(s.wait);
            q.push(s.done, {idx, true});
            if (ser != nullptr) {
              const auto [qlen, infl] = qdepth();
              ser->on_arrival_started_sampled(t_arr, s.done, qlen, infl);
            }
            break;
          case Station::Offer::kQueued:
            // local_done/wait filled when a slot frees up
            if (ser != nullptr) {
              const auto [qlen, infl] = qdepth();
              ser->on_arrival_sampled(t_arr, qlen, infl);
            }
            break;
          case Station::Offer::kOverflow:
            if (params_.overflow == OverflowPolicy::kRedirect) {
              o.flags |= kRedirected;
              repo.push_back({t_arr, svc.all_remote, global_base + idx});
              if (ser != nullptr) {
                const auto [qlen, infl] = qdepth();
                ser->on_arrival_redirected_sampled(t_arr, qlen, infl);
              }
            } else {
              o.flags |= kRejected;
              if (ser != nullptr) {
                const auto [qlen, infl] = qdepth();
                ser->on_arrival_rejected_sampled(t_arr, qlen, infl);
              }
            }
            continue;  // no local pipeline → no optional links
        }
        if (svc.remote_count > 0) {
          repo.push_back({t_arr, svc.remote, global_base + idx});
        }
        continue;
      }

      const auto item = q.pop();
      const double now = item.time;
      ++part.events;
      if (now > part.horizon) part.horizon = now;
      if (progress && est > 0) {
        const auto p_now = static_cast<std::uint32_t>(
            std::min(1000.0, now / est * 1000.0));
        if (p_now > permille_done) {
          progress->tick(p_now - permille_done);
          permille_done = p_now;
        }
      }
      Station::Started s;
      if (st.on_complete(now, &s)) queued_started(s, now);
      if (!item.event.page_done) {
        if (ser != nullptr) {
          const auto [qlen, infl] = qdepth();
          ser->on_served_sampled(now, qlen, infl);
        }
        continue;
      }

      // The page's local pipeline rendered: the viewer follows optional
      // links, each a fresh job at whichever station holds the object.
      const Outcome& o = out[item.event.owner];
      const PageId j = o.page;
      const Page& p = sys.page(j);
      if (p.optional.empty() || !opt_rng.bernoulli(params_.p_interested)) {
        if (ser != nullptr) {
          const auto [qlen, infl] = qdepth();
          ser->on_served_sampled(now, qlen, infl);
        }
        continue;
      }
      // Optional-link fan-out mutates the station below, so the completion
      // is counted here and the depth sample waits until the whole event
      // settles — the occupancy integral must see the post-fan-out depth.
      if (ser != nullptr) ser->on_served(now);
      const std::uint32_t n_req =
          optional_request_count(p, params_.optional_request_fraction);
      const auto n_opt = static_cast<std::uint32_t>(p.optional.size());
      if (n_req >= n_opt) {
        // Every link is followed: take them in slot order without a draw.
        // Rng::sample_into would draw n values and shift every later draw
        // of this stream.
        scratch.picks.resize(n_opt);
        std::iota(scratch.picks.begin(), scratch.picks.end(), 0u);
      } else {
        opt_rng.sample_into(n_opt, n_req, &scratch.picks);
      }
      for (std::uint32_t oi : scratch.picks) {
        if (asg.opt_local(j, oi)) {
          if (ser != nullptr) ser->on_arrival(now);
          switch (st.offer(now, sys.opt_local_time(j, oi), kOptionalTag, &s)) {
            case Station::Offer::kStarted:
              part.optional_local_time.add(s.done - now);
              q.push(s.done, {0, false});
              ++part.optional_fetches;
              if (ser != nullptr) ser->on_started(now, 0.0, s.done);
              break;
            case Station::Offer::kQueued:
              ++part.optional_fetches;
              break;
            case Station::Offer::kOverflow:
              if (params_.overflow == OverflowPolicy::kRedirect) {
                repo.push_back(
                    {now, sys.opt_remote_time(j, oi), kOptionalOwner});
                ++part.repo_optional;
                ++part.optional_fetches;
                if (ser != nullptr) ser->on_redirected(now);
              } else {
                ++part.optional_rejects;
                if (ser != nullptr) ser->on_rejected(now);
              }
              break;
          }
        } else {
          repo.push_back({now, sys.opt_remote_time(j, oi), kOptionalOwner});
          ++part.repo_optional;
          ++part.optional_fetches;
        }
      }
      ts_sample(now);
    }

    if (progress && permille_done < 1000) {
      progress->tick(1000 - permille_done);
    }
    part.queue_peak = st.queue_peak();
    part.busy_s = st.busy_seconds();
  };

  {
    TraceSpan phase_a("des.servers");
    const ShardPlan plan =
        make_shard_plan(sys, std::max<std::uint32_t>(1, params_.shards));
    if (params_.pool != nullptr && plan.num_shards() > 1) {
      std::vector<ShardScratch> scratches(plan.num_shards());
      params_.pool->parallel_for(plan.num_shards(), [&](std::size_t sh) {
        const auto shard = static_cast<std::uint32_t>(sh);
        for (ServerId i = plan.server_begin(shard);
             i < plan.server_end(shard); ++i) {
          run_server(i, scratches[sh]);
        }
      });
    } else {
      ShardScratch scratch;
      for (ServerId i = 0; i < n; ++i) run_server(i, scratch);
    }
  }

  // ---- Phase B: canonical repository pass ---------------------------------
  // Every per-server stream is born sorted by submit time. Phase A handles
  // its events in nondecreasing time: it takes the next arrival only when
  // it is <= the queue head, every completion it schedules lies at or after
  // the event being handled, and EventQueue::push clamps to the last pop.
  // Each repo.push_back stamps the current event time. So the streams are
  // merged, not sorted (sim/stream_merge.h checks the order as it goes),
  // with ties broken by server index: (time, server, submit order), the
  // order a stable sort of their server-order concatenation would give. The
  // merged order, and with it every repository completion, is independent
  // of how phase A was sharded or threaded.
  //
  // Results go straight back when a job starts: a page job's repo_done /
  // repo_wait into its Outcome row, an optional job's sojourn into a slot
  // reserved when the job is offered. Slots are in merged order under
  // either discipline, and phase C adds them in that order.
  std::uint64_t total_jobs = 0;
  std::uint64_t optional_jobs = 0;
  for (ServerId i = 0; i < n; ++i) {
    total_jobs += repo_streams[i].size();
    optional_jobs += partials[i].repo_optional;
  }
  // The streams and the optional slots are live from here to the end of
  // phase B; the gauge carries the whole DES footprint. Both sizes are a
  // pure function of instance + placement + seed.
  const std::uint64_t repo_bytes =
      total_jobs * sizeof(RepoJob) + optional_jobs * sizeof(double);
  MMR_GAUGE("memory.sim.des",
            static_cast<double>(outcome_bytes + repo_bytes));
  std::vector<double> optional_sojourn;
  std::uint64_t repo_events = 0;
  double repo_horizon = 0;  ///< latest repository completion
  Station repo_st(StationConfig{params_.repo_concurrency, kUnboundedQueue,
                                params_.discipline});
  {
    TraceSpan phase_b("des.repository");
    const memacct::Charge repo_charge(memacct::Category::kSimDes, repo_bytes);
    optional_sojourn.reserve(optional_jobs);

    StationSeries* repo_ser = ts ? &ts->repository() : nullptr;
    auto repo_depth = [&]() {
      const std::uint32_t qlen = repo_st.queue_len();
      const std::uint32_t infl =
          params_.discipline == QueueDiscipline::kPs
              ? repo_st.in_service() - qlen
              : repo_st.in_service();
      return std::pair<std::uint32_t, std::uint32_t>(qlen, infl);
    };
    // A job's tag is its global request index, or kOptionalTag + its slot,
    // which holds the submit time until the job starts.
    EventQueue<std::uint64_t> rq;
    auto started = [&](const Station::Started& s) {
      if (s.done > repo_horizon) repo_horizon = s.done;
      if (s.tag < kOptionalTag) {
        Outcome& o = outcomes[s.tag];
        o.repo_done = s.done;
        o.repo_wait = static_cast<float>(s.wait);
      } else {
        double& slot = optional_sojourn[s.tag - kOptionalTag];
        slot = s.done - slot;
      }
      rq.push(s.done, s.tag);
    };

    // Both branches use the fused one-lookup collection calls: the repo
    // row sees every redirected or remote job, so at high load this loop
    // touches the series more often than all site servers combined.
    StreamMerge jobs(repo_streams,
                     [](const RepoJob& job) { return job.submit; });
    Station::Started s;
    while (!jobs.empty() || !rq.empty()) {
      const double t_arr = jobs.empty() ? kInf : jobs.top_key();
      const double t_ev = rq.empty() ? kInf : rq.peek().time;
      if (t_arr <= t_ev) {
        ++repo_events;
        const RepoJob& job = jobs.top();
        std::uint64_t tag = job.owner;
        if (job.owner == kOptionalOwner) {
          tag = kOptionalTag + optional_sojourn.size();
          optional_sojourn.push_back(t_arr);
        }
        if (repo_st.offer(t_arr, job.service, tag, &s) ==
            Station::Offer::kStarted) {
          started(s);
          if (repo_ser != nullptr) {
            const auto [qlen, infl] = repo_depth();
            repo_ser->on_arrival_started_sampled(t_arr, s.done, qlen, infl);
          }
        } else if (repo_ser != nullptr) {
          const auto [qlen, infl] = repo_depth();
          repo_ser->on_arrival_sampled(t_arr, qlen, infl);
        }
        jobs.pop();
      } else {
        rq.pop();
        ++repo_events;
        if (repo_st.on_complete(t_ev, &s)) {
          started(s);
          if (repo_ser != nullptr) {
            const auto [qlen, infl] = repo_depth();
            repo_ser->on_complete_started_sampled(t_ev, s.wait, s.done, qlen,
                                                  infl);
          }
        } else if (repo_ser != nullptr) {
          const auto [qlen, infl] = repo_depth();
          repo_ser->on_served_sampled(t_ev, qlen, infl);
        }
      }
    }
    repo_streams.clear();  // every result is written back; free the jobs
  }

  // ---- Phase C: canonical scoring (main thread, server order) -------------
  {
    TraceSpan phase_c("des.score");

    // Causal async spans for the flight-sampled requests: every lifecycle
    // stage shares the request's async id, so one request renders as one
    // nested track in the Chrome trace. Virtual time maps to trace time at
    // 1 virtual second = 1 µs, based at phase C so the tracks land next to
    // the solver spans.
    const bool tracing = recording(kRecTrace);
    const std::uint64_t trace_base = tracing ? monotonic_now_ns() : 0;
    auto emit_stage = [&](std::uint64_t id, const char* stage, double start_v,
                          double dur_v,
                          std::vector<std::pair<std::string, std::string>>
                              trace_args) {
      TraceEvent e;
      e.name = stage;
      e.start_ns = trace_base +
                   static_cast<std::uint64_t>(std::max(0.0, start_v) * 1000.0);
      e.dur_ns = static_cast<std::uint64_t>(std::max(0.0, dur_v) * 1000.0);
      e.async_id = id;
      e.cat = "mmr.des";
      e.args = std::move(trace_args);
      Tracer::instance().record(std::move(e));
    };

    double horizon = repo_horizon;
    for (ServerId i = 0; i < n; ++i) {
      if (partials[i].horizon > horizon) horizon = partials[i].horizon;
    }
    m.horizon_s = horizon;

    for (ServerId i = 0; i < n; ++i) {
      const Outcome* out = outcomes.data() + static_cast<std::uint64_t>(i) *
                                                 per_server;
      for (std::uint32_t r = 0; r < per_server; ++r) {
        const Outcome& o = out[r];
        ++m.arrivals;
        const bool sampled = rec.sampled(r);
        const std::uint64_t req_id =
            static_cast<std::uint64_t>(i) * per_server + r + 1;
        if ((o.flags & kRejected) != 0) {
          ++m.rejects;
          if (tracing && sampled) {
            emit_stage(req_id, "request", o.arrival, 0.0,
                       {{"server", std::to_string(i)},
                        {"page", std::to_string(o.page)},
                        {"queue_depth", std::to_string(o.depth)},
                        {"outcome", "\"rejected\""}});
          }
          continue;
        }
        if ((o.flags & kRedirected) != 0) ++m.redirects;
        ++m.completions;
        const double done = std::max(o.local_done, o.repo_done);
        const double sojourn = done - o.arrival;
        const PageService& svc = services[o.page];
        const double stretch = svc.ideal > 0 ? sojourn / svc.ideal : 1.0;
        m.sojourn.add(sojourn);
        m.wait.add(o.wait);
        m.stretch.add(stretch);
        m.per_server_sojourn[i].add(sojourn);
        if (params_.capture_samples) {
          m.sojourn_samples.add(sojourn);
          m.stretch_samples.add(stretch);
        }
        const double local_service =
            o.local_done > 0 ? o.local_done - o.arrival - o.wait : 0.0;
        const double repo_service =
            o.repo_done > 0 ? o.repo_done - o.arrival - o.repo_wait : 0.0;
        if (FlightRecord* f = rec.record(
                i, o.page, r, o.arrival,
                o.local_done > 0 ? o.local_done - o.arrival : 0.0,
                o.repo_done > 0 ? o.repo_done - o.arrival : 0.0, sojourn,
                svc.ideal)) {
          f->local_stretch = stretch;
          f->throttled = (o.flags & kRedirected) != 0 ? 1 : 0;
          f->local_wait = o.wait;
          f->local_service = local_service;
          f->repo_wait = o.repo_wait;
          f->repo_service = repo_service;
          f->queue_depth = o.depth;
        }
        if (tracing && sampled) {
          emit_stage(req_id, "request", o.arrival, sojourn,
                     {{"server", std::to_string(i)},
                      {"page", std::to_string(o.page)},
                      {"queue_depth", std::to_string(o.depth)},
                      {"outcome", (o.flags & kRedirected) != 0
                                      ? "\"redirected\""
                                      : "\"ok\""}});
          if (o.wait > 0) {
            emit_stage(req_id, "local.wait", o.arrival, o.wait, {});
          }
          if (o.local_done > 0) {
            emit_stage(req_id, "local.service", o.arrival + o.wait,
                       local_service, {});
          }
          if (o.repo_done > 0) {
            if (o.repo_wait > 0) {
              emit_stage(req_id, "repo.wait", o.arrival, o.repo_wait, {});
            }
            emit_stage(req_id, "repo.service", o.arrival + o.repo_wait,
                       repo_service, {});
          }
        }
      }
      rec.flush();
    }

    // Optional-fetch stats: local sojourns first (server order), then
    // repository sojourns (merged order) — both orders canonical.
    for (ServerId i = 0; i < n; ++i) {
      m.optional_time.merge(partials[i].optional_local_time);
      m.optional_fetches += partials[i].optional_fetches;
      m.optional_rejects += partials[i].optional_rejects;
      m.events += partials[i].events;
      if (partials[i].queue_peak > m.queue_peak) {
        m.queue_peak = partials[i].queue_peak;
      }
      m.server_busy_s += partials[i].busy_s;
    }
    for (double sojourn : optional_sojourn) m.optional_time.add(sojourn);
    m.events += repo_events;
    m.repo_jobs = repo_st.jobs_started();
    m.repo_queue_peak = repo_st.queue_peak();
    m.repo_busy_s = repo_st.busy_seconds();
    if (m.horizon_s > 0) {
      m.server_utilization =
          m.server_busy_s /
          (m.horizon_s * static_cast<double>(n) * params_.server_concurrency);
      m.repo_utilization =
          m.repo_busy_s / (m.horizon_s * params_.repo_concurrency);
    }

    rec.finish();

    if (ts) {
      ts->horizon_s = m.horizon_s;
      ts->des_arrivals = m.arrivals;
      ts->des_completions = m.completions;
      ts->des_rejects = m.rejects;
      ts->des_redirects = m.redirects;
      ts->des_server_busy_s = m.server_busy_s;
      ts->des_repo_busy_s = m.repo_busy_s;
      global_timeseries_log().add(std::move(*ts));
    }
  }

  MMR_COUNT("des.arrivals", m.arrivals);
  MMR_COUNT("des.completions", m.completions);
  MMR_COUNT("des.rejects", m.rejects);
  MMR_COUNT("des.redirects", m.redirects);
  MMR_COUNT("des.optional_fetches", m.optional_fetches);
  MMR_COUNT("des.repo_jobs", m.repo_jobs);
  MMR_COUNT("des.events", m.events);
  MMR_GAUGE("des.utilization.server", m.server_utilization);
  MMR_GAUGE("des.utilization.repo", m.repo_utilization);
  MMR_GAUGE("des.queue_peak.server", static_cast<double>(m.queue_peak));
  MMR_GAUGE("des.queue_peak.repo", static_cast<double>(m.repo_queue_peak));
  MMR_GAUGE("des.horizon_s", m.horizon_s);
  return m;
}

}  // namespace mmr
