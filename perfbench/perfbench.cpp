// End-to-end benchmark of the replication pipeline: three closed-loop
// workloads driven through the public entry points of workload, model, core,
// baselines, sim, obs and io. README.md in this directory describes the
// workloads, every metric and the measuring method.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--out DIR]
//
// --threads overrides the solver pool of fleet-solve (default 2); the other
// workloads are single-threaded. --out is where passes write their files
// (default perfbench-out). The last line on stdout is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/static_policies.h"
#include "core/policy.h"
#include "io/artifacts.h"
#include "io/serialize.h"
#include "model/cost.h"
#include "model/shard.h"
#include "obs/invariants.h"
#include "obs/obs.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "sim/des.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/scale.h"

namespace {

using namespace mmr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// A timing tagged with the cycle position of the pass it came from; -1
/// for set-up.
struct Timing {
  std::int64_t position;
  double seconds;
};

/// Median of a cycle-structured sample: the mean over cycle positions of
/// each position's median, so every configuration of the cycle weighs the
/// same whatever the mix of pass costs. With a cycle of 1 it is the plain
/// median. Set-up timings (position -1) are left out.
double cycle_median(const std::vector<Timing>& timings, std::uint64_t cycle) {
  double sum = 0;
  for (std::uint64_t p = 0; p < cycle; ++p) {
    std::vector<double> at;
    for (const Timing& t : timings) {
      if (t.position == static_cast<std::int64_t>(p)) at.push_back(t.seconds);
    }
    sum += median(at);
  }
  return sum / static_cast<double>(cycle);
}

std::vector<double> seconds_of(const std::vector<Timing>& timings) {
  std::vector<double> out;
  for (const Timing& t : timings) out.push_back(t.seconds);
  return out;
}

// ---------------------------------------------------------------------------
// Spans, recorded from this file around each call into the library. They are
// kept in memory and written as a Chrome trace when the run ends. Recording
// is off in untraced passes, where opening a span costs one branch.

struct Span {
  const char* layer;
  const char* name;
  double begin_s = 0;
  double end_s = 0;
  int parent = -1;
  std::uint64_t work = 0;  ///< items the call processed (refs, bytes)
};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int open(const char* layer, const char* name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {layer, name, now(), 0, stack_.empty() ? -1 : stack_.back(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end_s = now();
    stack_.pop_back();
  }
  void add_work(int id, std::uint64_t work) {
    if (id >= 0) spans_[id].work += work;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_since(origin_); }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class SpanScope {
 public:
  SpanScope(const char* layer, const char* name)
      : id_(g_spans.open(layer, name)) {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

template <class F>
auto in_span(const char* layer, const char* name, F&& f) -> decltype(f()) {
  SpanScope scope(layer, name);
  return f();
}

// ---------------------------------------------------------------------------
// Reference kernel. Load on a shared host can change the speed of whole runs
// by up to 2x for minutes at a time, in CPU time as much as in wall time
// (see README.md), and no statistic inside a run removes a shift of the
// whole run. So every run also times this fixed kernel, which depends on
// none of the program's code, between passes, and the end-to-end timings are
// reported in reference seconds: measured seconds scaled by
// kReferenceNominalS over the run's median kernel time.

/// The kernel's median time on an unloaded 4-vCPU Xeon VM; it only sets the
/// scale, so that reference seconds read close to seconds there.
constexpr double kReferenceNominalS = 0.024;

class ReferenceKernel {
 public:
  ReferenceKernel() : next_(kSlots), keys_(kKeys) {
    // One random cycle through all slots (Sattolo's algorithm), so the chase
    // misses the private caches the way the solver's CSR walks do.
    std::mt19937_64 rng(0x5EF);
    for (std::uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng() % i]);
    }
    for (double& k : keys_) k = static_cast<double>(rng() >> 11);
  }

  /// Runs and times the kernel once.
  void run() {
    const auto t0 = Clock::now();
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i) at = next_[at];
    std::vector<double> sorted = keys_;
    std::sort(sorted.begin(), sorted.end());
    sink_ += at + static_cast<std::uint64_t>(sorted[kKeys / 2]);
    times_.push_back(seconds_since(t0));
  }
  double median_s() const { return median(times_); }
  /// Keeps the kernel's result observable, so it is not optimized away.
  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::uint32_t kSlots = 1u << 20;  ///< 4 MiB of indices
  static constexpr std::uint32_t kSteps = 600000;
  static constexpr std::uint32_t kKeys = 1u << 16;

  std::vector<std::uint32_t> next_;
  std::vector<double> keys_;
  std::vector<double> times_;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Counts taken from the reports the public calls return.

/// Cycle position of the running pass; -1 during set-up.
std::int64_t g_position = -1;

struct Tally {
  std::vector<Timing> solve_s;  ///< constrained solves, untraced only
  std::uint64_t constrained_solves = 0;
  std::uint64_t feasible_solves = 0;
  std::uint64_t deallocations = 0;
  std::uint64_t repartitioned_pages = 0;
  std::uint64_t repartition_improvements = 0;
  std::uint64_t unmarked_slots = 0;
  std::uint64_t offload_rounds = 0;
  std::uint64_t slots_absorbed = 0;
  std::uint64_t lru_calls = 0;
  std::uint64_t lru_hits = 0;
  std::uint64_t lru_misses = 0;
  std::uint64_t lru_evictions = 0;
  std::uint64_t lru_throttled = 0;
  std::uint64_t des_arrivals = 0;
  std::uint64_t des_events = 0;
  std::uint64_t des_redirects = 0;
};

Tally g_tally;

/// Bits, objective and feasibility of one solve.
struct Solved {
  Assignment assignment;
  double d = 0;
  bool feasible = true;
};

void tally_solve(const PolicyResult& r) {
  ++g_tally.constrained_solves;
  g_tally.feasible_solves += r.feasible ? 1 : 0;
  g_tally.deallocations += r.storage_report.deallocations;
  g_tally.repartitioned_pages += r.storage_report.repartitioned_pages;
  g_tally.repartition_improvements += r.storage_report.repartition_improvements;
  g_tally.unmarked_slots += r.processing_report.unmarked_slots;
  g_tally.offload_rounds += r.offload_report.rounds.size();
  g_tally.slots_absorbed += r.offload_report.slots_absorbed;
}

/// One run of the replication policy. Untraced it is one
/// run_replication_policy call; traced it makes the same public calls in
/// pipeline order (as core/policy.cpp does) with a span around each, and
/// pipeline_matches() later compares the two bit for bit.
Solved solve(const SystemModel& sys, const PolicyOptions& opt,
             bool constrained) {
  PolicyResult r = [&] {
    if (!g_spans.enabled()) {
      const auto t0 = Clock::now();
      PolicyResult res = run_replication_policy(sys, opt);
      if (constrained) {
        g_tally.solve_s.push_back({g_position, seconds_since(t0)});
      }
      return res;
    }
    SpanScope solve_span("bench", "solve");
    PolicyResult res = in_span("model", "assignment_init", [&] {
      return PolicyResult{Assignment(sys), 0, 0, 0, 0, {}, {}, {}, {}, true};
    });
    ShardPlan plan_storage;
    const ShardPlan* plan = nullptr;
    if (opt.shards > 0 && sys.num_servers() > 0) {
      plan_storage = in_span("model", "shard_plan",
                             [&] { return make_shard_plan(sys, opt.shards); });
      plan = &plan_storage;
    }
    in_span("core", "partition", [&] {
      partition_all(sys, res.assignment, opt.partition, opt.pool, plan);
    });
    if (opt.restore_storage_enabled) {
      res.storage_report = in_span("core", "storage_restore", [&] {
        return restore_storage(sys, res.assignment, opt.weights, opt.storage,
                               opt.pool, plan);
      });
    }
    if (opt.restore_processing_enabled) {
      res.processing_report = in_span("core", "processing_restore", [&] {
        return restore_processing(sys, res.assignment, opt.weights,
                                  opt.processing, opt.pool, plan);
      });
    }
    if (opt.offload_enabled) {
      res.offload_report = in_span("core", "offload", [&] {
        return offload_repository(sys, res.assignment, opt.weights,
                                  opt.offload, opt.pool, plan);
      });
    }
    res.d_after_offload = in_span("model", "objective", [&] {
      return objective_total_cached(res.assignment, opt.weights);
    });
    res.feasible = res.storage_report.feasible() &&
                   res.processing_report.feasible() &&
                   (!opt.offload_enabled || !res.offload_report.triggered ||
                    res.offload_report.converged);
    return res;
  }();
  if (constrained) tally_solve(r);
  return {std::move(r.assignment), r.d_after_offload, r.feasible};
}

PolicyOptions unconstrained_options(PolicyOptions opt) {
  opt.restore_storage_enabled = false;
  opt.restore_processing_enabled = false;
  opt.offload_enabled = false;
  return opt;
}

bool same_bits(const Assignment& a, const Assignment& b) {
  return a.comp_bits() == b.comp_bits() && a.opt_bits() == b.opt_bits();
}

/// The traced pipeline must reproduce run_replication_policy exactly.
bool pipeline_matches(const SystemModel& sys, const PolicyOptions& opt,
                      const Solved& s) {
  const PolicyResult ref = run_replication_policy(sys, opt);
  return same_bits(ref.assignment, s.assignment) &&
         ref.d_after_offload == s.d && ref.feasible == s.feasible;
}

/// The checks every solve must pass: the from-scratch objective equals the
/// cached one and the reported D (relative 1e-6, as the solver tests pin
/// it), and the constraint audit agrees with the reported feasibility.
bool solve_consistent(const SystemModel& sys, const Solved& s,
                      const Weights& w) {
  const double scratch = objective_total(sys, s.assignment, w);
  const double cached = objective_total_cached(s.assignment, w);
  const bool objective_ok =
      std::abs(scratch - cached) <= 1e-6 * std::max(1.0, std::abs(scratch)) &&
      std::abs(s.d - cached) <= 1e-6 * std::max(1.0, std::abs(cached));
  return objective_ok &&
         audit_constraints(sys, s.assignment).ok() == s.feasible;
}

std::uint64_t file_bytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void save_placement(const Assignment& asg, const std::string& path) {
  SpanScope span("io", "save_assignment");
  save_assignment_file(asg, path);
  g_spans.add_work(span.id(), file_bytes(path));
}

/// save -> load -> save again must reproduce the file byte for byte.
bool placement_round_trips(const SystemModel& sys, const std::string& path) {
  const Assignment loaded = in_span(
      "io", "load_assignment", [&] { return load_assignment_file(sys, path); });
  std::ostringstream again;
  save_assignment(loaded, again);
  return again.str() == read_file(path);
}

SystemModel generate_traced(const char* name,
                            const std::function<SystemModel()>& gen) {
  SpanScope span("workload", name);
  SystemModel sys = gen();
  g_spans.add_work(span.id(), std::uint64_t{sys.total_comp_slots()} +
                                  sys.total_opt_slots());
  return sys;
}

// ---------------------------------------------------------------------------
// Workloads. setup() rebuilds every piece of state from the seed; pass() is
// the timed work; check() verifies the pass's outputs, untimed.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(std::uint32_t index) = 0;
  virtual void pass(std::uint64_t k) = 0;
  virtual bool check(std::uint64_t k, bool traced) = 0;
  /// Passes cycle through this many configurations. A run measures whole
  /// cycles, so every configuration weighs the same in its statistics, and
  /// a traced run alternates traced and untraced cycles.
  virtual std::uint64_t cycle_length() const { return 1; }
  /// Passes the deterministic metrics need; the run continues past
  /// --seconds until they are done.
  virtual std::uint64_t min_passes() const { return 1; }
  /// Extra untimed work after traced pass k (recorders-off comparisons).
  virtual void after_traced_pass(std::uint64_t /*k*/) {}
  /// Simulated page requests per second: by default those of the timed
  /// passes over their wall time.
  virtual double sim_requests_per_s(std::uint64_t pass_requests,
                                    double pass_wall_s) const {
    return ratio(static_cast<double>(pass_requests), pass_wall_s);
  }

  /// Page requests simulated by the last pass.
  std::uint64_t pass_requests = 0;
  /// False once a set-up check fails, or a set-up's deterministic outputs
  /// disagree with an earlier set-up's.
  bool setup_ok = true;
  double objective_d_rel = 0;
  double response_rel = 0;

 protected:
  /// Records one set-up's deterministic metrics; every set-up must repeat
  /// the first one's exactly.
  void record_rel(double d_rel, double resp_rel) {
    if (have_rel_ && (d_rel != objective_d_rel || resp_rel != response_rel)) {
      setup_ok = false;
    }
    objective_d_rel = d_rel;
    response_rel = resp_rel;
    have_rel_ = true;
  }

 private:
  bool have_rel_ = false;
};

/// paper-figures: one seeded Table-1 run per pass, cycling the Figure 1,
/// 2 and 3 scenario ticks so the storage, processing and repository
/// constraints each bind on some passes.
class PaperFigures final : public Workload {
 public:
  PaperFigures(std::uint64_t seed, std::string out_dir)
      : seed_(seed), path_(std::move(out_dir) + "/paper-figures.asg") {}

  void setup(std::uint32_t index) override {
    // Warm-up: one full pass on an instance outside the timed sequence.
    run(mix_seed(seed_, 0x5E7 + index), kTicks[0]);
  }
  void pass(std::uint64_t k) override {
    run(mix_seed(seed_, 1000 + k), kTicks[k % kNumTicks]);
  }
  bool check(std::uint64_t k, bool traced) override {
    const WorkloadParams wl;
    bool ok = solve_consistent(*sys_, *ours_, {wl.alpha1, wl.alpha2}) &&
              placement_round_trips(*sys_, path_) &&
              std::isfinite(ours_resp_) && ours_resp_ > 0 &&
              std::isfinite(unc_resp_) && unc_resp_ > 0 &&
              std::isfinite(lru_resp_) && lru_resp_ > 0;
    if (traced) ok = ok && pipeline_matches(*sys_, opt_, *ours_);
    if (k < kRelPasses) {
      d_rel_sum_ += ours_->d / unc_d_;
      resp_rel_sum_ += ours_resp_ / unc_resp_;
      objective_d_rel = d_rel_sum_ / kRelPasses;
      response_rel = resp_rel_sum_ / kRelPasses;
    }
    return ok;
  }
  std::uint64_t cycle_length() const override { return kNumTicks; }
  std::uint64_t min_passes() const override { return kRelPasses; }

 private:
  struct Tick {
    double storage;
    double local;    ///< < 0: unconstrained
    double central;  ///< < 0: unconstrained
  };
  static constexpr std::uint64_t kNumTicks = 3;
  // One tick each of Figure 1 (storage at 50%), Figure 2 (local processing
  // at 50%) and Figure 3 (local processing at 70%, central at 50%).
  static constexpr Tick kTicks[kNumTicks] = {
      {0.5, -1, -1}, {1, 0.5, -1}, {1, 0.7, 0.5}};
  /// The first passes, whose instances give the deterministic metrics.
  static constexpr std::uint64_t kRelPasses = 9 * kNumTicks;

  /// The runner's per-run pipeline (sim/runner.cpp, run_single) on one
  /// instance, plus the placement write.
  void run(std::uint64_t seed, const Tick& tick) {
    WorkloadParams wl;
    wl.server_proc_capacity = kUnlimited;
    wl.repo_proc_capacity = kUnlimited;
    sys_.reset();
    sys_ = std::make_unique<SystemModel>(generate_traced(
        "generate", [&] { return generate_workload(wl, seed); }));
    SystemModel& sys = *sys_;
    opt_ = PolicyOptions{};
    opt_.weights = {wl.alpha1, wl.alpha2};
    const Solved unc = solve(sys, unconstrained_options(opt_), false);
    unc_d_ = unc.d;

    // Capacity axes, calibrated as the runner does: 100% local capacity is
    // the all-local load, 0% the HTML-only load; 100% central capacity is
    // the unconstrained placement's repository load.
    set_storage_fraction(sys, tick.storage);
    if (tick.local >= 0) {
      const Assignment all_local = in_span(
          "baselines", "local_assignment",
          [&] { return make_local_assignment(sys); });
      std::vector<double> caps(sys.num_servers());
      for (ServerId i = 0; i < sys.num_servers(); ++i) {
        caps[i] = std::max({sys.page_request_rate(i),
                            tick.local * all_local.server_proc_load(i), 1e-9});
      }
      set_processing_capacities(sys, caps);
    }
    if (tick.central >= 0) {
      set_repo_capacity(sys, unc.assignment.repo_proc_load(), tick.central);
    }
    ours_ = solve(sys, opt_, true);

    const Simulator sim(sys, SimParams{});
    const std::uint64_t sim_seed = mix_seed(seed, 0x5EED);
    const SimMetrics m_ours = in_span("sim", "simulate", [&] {
      return sim.simulate(ours_->assignment, sim_seed);
    });
    const SimMetrics m_unc = in_span("sim", "simulate", [&] {
      return sim.simulate(unc.assignment, sim_seed);
    });
    const SimMetrics m_lru = in_span(
        "sim", "simulate_lru", [&] { return sim.simulate_lru(sim_seed); });
    ours_resp_ = m_ours.page_response.mean();
    unc_resp_ = m_unc.page_response.mean();
    lru_resp_ = m_lru.page_response.mean();
    pass_requests = m_ours.page_response.count() +
                    m_unc.page_response.count() +
                    m_lru.page_response.count();
    ++g_tally.lru_calls;
    g_tally.lru_hits += m_lru.lru_hits;
    g_tally.lru_misses += m_lru.lru_misses;
    g_tally.lru_evictions += m_lru.lru_evictions;
    g_tally.lru_throttled += m_lru.throttled_requests;

    save_placement(ours_->assignment, path_);
  }

  std::uint64_t seed_;
  std::string path_;
  std::unique_ptr<SystemModel> sys_;
  PolicyOptions opt_;
  std::optional<Solved> ours_;
  double unc_d_ = 0;
  double ours_resp_ = 0, unc_resp_ = 0, lru_resp_ = 0;
  double d_rel_sum_ = 0, resp_rel_sum_ = 0;
};

/// Closed-form response of the constrained vs the unconstrained placement
/// on one request stream: the y-axis of the paper's figures. Also returns
/// each of the two simulate calls' page requests per second.
struct ResponseProbe {
  double rel = 0;
  std::vector<double> requests_per_s;
};

ResponseProbe probe_response(const SystemModel& sys, const Assignment& ours,
                             const Assignment& unc,
                             std::uint32_t requests_per_server,
                             std::uint64_t seed) {
  SimParams params;
  params.requests_per_server = requests_per_server;
  const Simulator sim(sys, params);
  ResponseProbe probe;
  auto timed = [&](const Assignment& asg) {
    const auto t0 = Clock::now();
    const SimMetrics m =
        in_span("sim", "simulate", [&] { return sim.simulate(asg, seed); });
    probe.requests_per_s.push_back(
        ratio(static_cast<double>(m.page_response.count()), seconds_since(t0)));
    return m.page_response.mean();
  };
  const double ours_resp = timed(ours);
  probe.rel = ours_resp / timed(unc);
  return probe;
}

/// fleet-solve: the medium scale tier generated and calibrated in set-up;
/// each pass is one constrained solve on the pool, then the placement
/// write.
class FleetSolve final : public Workload {
 public:
  FleetSolve(std::uint64_t seed, std::string out_dir, std::uint32_t threads)
      : seed_(seed),
        path_(std::move(out_dir) + "/fleet-solve.asg"),
        pool_(threads) {
    opt_.pool = &pool_;
    opt_.shards = kShards;
  }

  void setup(std::uint32_t) override {
    sys_.reset();
    sys_ = std::make_unique<SystemModel>(generate_traced("generate_scale", [&] {
      return generate_scale_workload(scale_params(ScaleTier::kMedium),
                                     mix_seed(seed_, 0xF1EE7), {}, &pool_,
                                     kShards);
    }));
    const Solved unc = solve(*sys_, unconstrained_options(opt_), false);
    // Warm-up solve; its placement is the reference every pass must match.
    reference_ = solve(*sys_, opt_, true);
    const ResponseProbe probe =
        probe_response(*sys_, reference_->assignment, unc.assignment,
                       kProbeRequests, mix_seed(seed_, 0x5EED));
    probe_rates_.insert(probe_rates_.end(), probe.requests_per_s.begin(),
                        probe.requests_per_s.end());
    record_rel(reference_->d / unc.d, probe.rel);
  }
  void pass(std::uint64_t) override {
    last_ = solve(*sys_, opt_, true);
    save_placement(last_->assignment, path_);
  }
  bool check(std::uint64_t, bool) override {
    // The reference came from run_replication_policy, so this also compares
    // a traced pass's pipeline with it bit for bit.
    return same_bits(last_->assignment, reference_->assignment) &&
           last_->d == reference_->d &&
           last_->feasible == reference_->feasible &&
           solve_consistent(*sys_, *last_, opt_.weights) &&
           placement_round_trips(*sys_, path_);
  }
  /// Passes do not simulate; the set-ups' response probes do (median over
  /// their simulate calls).
  double sim_requests_per_s(std::uint64_t, double) const override {
    return median(probe_rates_);
  }

 private:
  static constexpr std::uint32_t kShards = 16;
  /// Table 1's request count; the probes also give sim_requests_per_s.
  static constexpr std::uint32_t kProbeRequests = 10000;

  std::uint64_t seed_;
  std::string path_;
  ThreadPool pool_;
  PolicyOptions opt_;
  std::unique_ptr<SystemModel> sys_;
  std::optional<Solved> reference_;
  std::optional<Solved> last_;
  std::vector<double> probe_rates_;
};

/// des-stream: small-tier placements solved in set-up; each pass runs the
/// DES on one of them with the sketch, time-series and invariants recorders
/// on, then writes those artifacts. Passes cycle through the placements. The
/// arrival scale keeps every station stable.
class DesStream final : public Workload {
 public:
  DesStream(std::uint64_t seed, const std::string& out_dir)
      : seed_(seed),
        sketch_path_(out_dir + "/des-stream.sketch.jsonl"),
        ts_path_(out_dir + "/des-stream.timeseries.jsonl"),
        inv_path_(out_dir + "/des-stream.invariants.jsonl") {
    meta_.tool = "perfbench";
    meta_.add("workload", "des-stream").add("seed", seed);
  }

  void setup(std::uint32_t) override {
    set_obs_enabled(false);
    set_timeseries_enabled(false);
    instances_.clear();
    DesParams params;
    params.requests_per_server = kDesRequests;
    params.arrival_rate_scale = kArrivalScale;
    double d_rel = 0, resp_rel = 0, horizon_s = 0;
    for (std::uint32_t i = 0; i < kInstances; ++i) {
      Instance inst;
      inst.sys = std::make_unique<SystemModel>(
          generate_traced("generate_scale", [&] {
            return generate_scale_workload(scale_params(ScaleTier::kSmall),
                                           mix_seed(seed_, 0xDE5 + i), {},
                                           nullptr, 0);
          }));
      const SystemModel& sys = *inst.sys;
      const PolicyOptions opt;
      const Solved unc = solve(sys, unconstrained_options(opt), false);
      inst.ours = solve(sys, opt, true);
      if (g_spans.enabled() && !pipeline_matches(sys, opt, *inst.ours)) {
        setup_ok = false;
      }
      const ResponseProbe probe =
          probe_response(sys, inst.ours->assignment, unc.assignment,
                         kProbeRequests, mix_seed(seed_, 0x5EED + i));
      d_rel += inst.ours->d / unc.d / kInstances;
      resp_rel += probe.rel / kInstances;
      inst.des = std::make_unique<DesSimulator>(sys, params);
      // A server's simulated horizon is its request count over its arrival
      // rate.
      for (ServerId s = 0; s < sys.num_servers(); ++s) {
        const double rate = sys.page_request_rate(s) * kArrivalScale;
        horizon_s = std::max(horizon_s, kDesRequests / rate);
      }
      instances_.push_back(std::move(inst));
    }
    record_rel(d_rel, resp_rel);

    // Windows sized so the longest horizon spans ~kWindows of them.
    ObsConfig ocfg = obs_config();
    ocfg.window_s = horizon_s / kWindows;
    set_obs_config(ocfg);
    TimeseriesConfig tcfg = timeseries_config();
    tcfg.window_s = horizon_s / kWindows;
    set_timeseries_config(tcfg);
    set_obs_enabled(true);
    set_timeseries_enabled(true);

    // Warm-up pass. Every later pass on a placement must reproduce the
    // outputs of the first one exactly.
    pass(0);
    if (!check(0, false)) setup_ok = false;
  }

  void pass(std::uint64_t k) override {
    Instance& inst = instances_[k % kInstances];
    // Fresh recorder logs, so every pass does the same work.
    global_obs_log().clear();
    global_timeseries_log().clear();
    last_ = in_span("sim", "des", [&] {
      return inst.des->simulate(inst.ours->assignment, kDesSeed);
    });
    pass_requests = last_.arrivals;
    const std::vector<TimeseriesShard> ts = in_span(
        "obs", "snapshot", [&] { return global_timeseries_log().snapshot(); });
    const std::vector<ObsShard> sketches =
        in_span("obs", "snapshot", [&] { return global_obs_log().snapshot(); });
    report_ = in_span("obs", "invariants_audit",
                      [&] { return audit_timeseries(ts); });

    write_artifact(sketch_path_, [&](std::ostream& os) {
      write_sketch_jsonl(os, sketches, obs_config(), global_obs_log().dropped(),
                         meta_);
    });
    write_artifact(ts_path_, [&](std::ostream& os) {
      write_timeseries_jsonl(os, ts, timeseries_config(),
                             global_timeseries_log().dropped(), meta_);
    });
    write_artifact(inv_path_, [&](std::ostream& os) {
      write_invariants_jsonl(os, report_, InvariantTolerances{}, meta_);
    });
  }

  bool check(std::uint64_t k, bool) override {
    Instance& inst = instances_[k % kInstances];
    const DesMetrics& m = last_;
    bool ok = m.arrivals == m.completions + m.rejects && m.redirects == 0 &&
              m.arrivals ==
                  std::uint64_t{kDesRequests} * inst.sys->num_servers() &&
              m.repo_utilization < 1 && m.server_utilization < 1 &&
              report_.all_ok();
    if (inst.reference) {
      ok = ok && m.events == inst.reference->events &&
           m.sojourn.mean() == inst.reference->sojourn.mean();
    } else {
      inst.reference = m;
    }
    // Every artifact must parse back with its strict parser.
    try {
      in_span("io", "read_artifact", [&] { read_sketch_file(sketch_path_); });
      in_span("io", "read_artifact", [&] { read_timeseries_file(ts_path_); });
      const InvariantsDoc inv = in_span("io", "read_artifact", [&] {
        return read_invariants_file(inv_path_);
      });
      ok = ok && inv.declared_ok && inv.declared_violations == 0;
    } catch (const std::exception& e) {
      std::cerr << "artifact parse failed: " << e.what() << '\n';
      ok = false;
    }
    g_tally.des_arrivals += m.arrivals;
    g_tally.des_events += m.events;
    g_tally.des_redirects += m.redirects;
    return ok;
  }

  void after_traced_pass(std::uint64_t k) override {
    // The same simulation with every recorder off: the obs overhead base.
    const Instance& inst = instances_[k % kInstances];
    set_obs_enabled(false);
    set_timeseries_enabled(false);
    in_span("sim", "des_recorders_off", [&] {
      return inst.des->simulate(inst.ours->assignment, kDesSeed);
    });
    set_obs_enabled(true);
    set_timeseries_enabled(true);
  }

  std::uint64_t cycle_length() const override { return kInstances; }

 private:
  struct Instance {
    std::unique_ptr<SystemModel> sys;
    std::optional<Solved> ours;
    std::unique_ptr<DesSimulator> des;
    std::optional<DesMetrics> reference;
  };

  /// Placements per run: the deterministic metrics average over them.
  static constexpr std::uint32_t kInstances = 6;
  static constexpr std::uint32_t kDesRequests = 20000;
  /// Offered load as a multiple of the nominal page-request rate. At the
  /// nominal load the repository backlogs without bound (see README.md).
  static constexpr double kArrivalScale = 1e-5;
  static constexpr double kWindows = 400;
  static constexpr std::uint32_t kProbeRequests = 2000;
  static constexpr std::uint64_t kDesSeed = 0xDE55EED;

  template <class F>
  void write_artifact(const std::string& path, F&& write) {
    SpanScope span("io", "write_artifact");
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      write(os);
    }
    g_spans.add_work(span.id(), file_bytes(path));
  }

  std::uint64_t seed_;
  std::string sketch_path_, ts_path_, inv_path_;
  RunMeta meta_;
  std::vector<Instance> instances_;
  DesMetrics last_;
  InvariantsReport report_;
};

}  // namespace

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::uint32_t threads = 2;
  std::string out_dir = "perfbench-out";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload paper-figures|fleet-solve|"
               "des-stream --seed N --seconds S --trace 0|1 [--threads T] "
               "[--out DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have_trace = true;
      } else if (key == "--threads") {
        a.threads = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "--out") {
        a.out_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(a.seconds > 0) || a.threads < 1) usage("bad --seconds or --threads");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "paper-figures") {
    return std::make_unique<PaperFigures>(a.seed, a.out_dir);
  }
  if (a.workload == "fleet-solve") {
    return std::make_unique<FleetSolve>(a.seed, a.out_dir, a.threads);
  }
  if (a.workload == "des-stream") {
    return std::make_unique<DesStream>(a.seed, a.out_dir);
  }
  usage("unknown workload " + a.workload);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metrics from the spans of a traced run. Self time is a span's
/// duration minus its children's; the shares are over the traced passes'
/// wall time, and the bench-layer self time (this file's own code inside a
/// pass) is the untraced remainder, so the shares sum to 1.
std::vector<Metric> layer_metrics(const std::vector<Timing>& traced,
                                  const std::vector<Timing>& untraced,
                                  std::uint64_t cycle) {
  const std::vector<double> traced_s = seconds_of(traced);
  const std::vector<Span>& spans = g_spans.spans();
  // Spans nest strictly, so a parent always precedes its children and each
  // span's root is its top-level set-up, pass or check span.
  std::vector<double> child_s(spans.size(), 0);
  std::vector<std::size_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root[i] = s.parent < 0 ? i : root[s.parent];
    if (s.parent >= 0) child_s[s.parent] += s.end_s - s.begin_s;
  }
  auto dur = [&](std::size_t i) { return spans[i].end_s - spans[i].begin_s; };
  auto is = [](const Span& s, const char* layer, const char* name) {
    return std::string(s.layer) == layer &&
           (name == nullptr || std::string(s.name) == name);
  };
  auto in_pass = [&](std::size_t i) {
    return is(spans[root[i]], "bench", "pass");
  };
  auto durations = [&](const char* layer, const char* name) {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (is(spans[i], layer, name)) out.push_back(dur(i));
    }
    return out;
  };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return ratio(sum, static_cast<double>(v.size()));
  };
  // Calls differ in size within a run (a paper-figures tick that binds
  // storage restores far more than one that does not), so a layer's call
  // time is its mean: what the layer costs per call in total.
  auto mean_of = [&](const char* layer, const char* name) {
    return mean(durations(layer, name));
  };
  // Time one kind of top-level span spends in calls of `layer` whose names
  // are listed: one sum per top-level span, e.g. io writes per pass.
  auto per_root = [&](const char* root_name, const char* layer,
                      std::initializer_list<const char*> names) {
    std::vector<double> sums;
    std::vector<std::size_t> slot(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0 && is(spans[i], "bench", root_name)) {
        slot[i] = sums.size();
        sums.push_back(0);
      } else if (is(spans[root[i]], "bench", root_name)) {
        for (const char* name : names) {
          if (is(spans[i], layer, name)) sums[slot[root[i]]] += dur(i);
        }
      }
    }
    return sums;
  };
  double pass_wall = 0;
  for (double t : traced_s) pass_wall += t;
  auto self_share = [&](const char* layer, const char* name) {
    double self = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (in_pass(i) && is(spans[i], layer, name)) self += dur(i) - child_s[i];
    }
    return ratio(self, pass_wall);
  };
  auto work_per_pass = [&](const char* layer, const char* name) {
    double work = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (in_pass(i) && is(spans[i], layer, name)) {
        work += static_cast<double>(spans[i].work);
      }
    }
    return ratio(work, static_cast<double>(traced_s.size()));
  };

  double gen_s = 0, gen_refs = 0;
  for (const Span& s : spans) {
    if (is(s, "workload", nullptr)) {
      gen_s += s.end_s - s.begin_s;
      gen_refs += static_cast<double>(s.work);
    }
  }
  const Tally& t = g_tally;
  const auto solves = static_cast<double>(t.constrained_solves);
  auto per_solve = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), solves);
  };
  const double des_off = median(durations("sim", "des_recorders_off"));
  std::vector<double> des_on;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (in_pass(i) && is(spans[i], "sim", "des")) des_on.push_back(dur(i));
  }

  return {
      {"workload.generate_s", mean_of("workload", nullptr), "s"},
      {"workload.refs_per_s", ratio(gen_refs, gen_s), "1/s"},
      {"model.assignment_init_s", mean_of("model", "assignment_init"), "s"},
      {"core.partition_s", mean_of("core", "partition"), "s"},
      {"core.storage_restore_s", mean_of("core", "storage_restore"), "s"},
      {"core.processing_restore_s", mean_of("core", "processing_restore"),
       "s"},
      {"core.offload_s", mean_of("core", "offload"), "s"},
      {"core.storage_deallocations", per_solve(t.deallocations), "count"},
      {"core.repartition_useful_ratio",
       ratio(static_cast<double>(t.repartition_improvements),
             static_cast<double>(t.repartitioned_pages)),
       "1"},
      {"core.processing_unmarked_slots", per_solve(t.unmarked_slots), "count"},
      {"core.offload_rounds", per_solve(t.offload_rounds), "count"},
      {"core.offload_slots_absorbed", per_solve(t.slots_absorbed), "count"},
      {"core.feasible_share", per_solve(t.feasible_solves), "1"},
      {"sim.simulate_s", mean_of("sim", "simulate"), "s"},
      {"sim.lru_share", self_share("sim", "simulate_lru"), "1"},
      {"baselines.lru_hit_ratio",
       ratio(static_cast<double>(t.lru_hits),
             static_cast<double>(t.lru_hits + t.lru_misses)),
       "1"},
      {"baselines.lru_evictions",
       ratio(static_cast<double>(t.lru_evictions),
             static_cast<double>(t.lru_calls)),
       "count"},
      {"sim.lru_throttled_share",
       ratio(static_cast<double>(t.lru_throttled),
             static_cast<double>(t.lru_hits)),
       "1"},
      {"sim.des_share", self_share("sim", "des"), "1"},
      {"sim.des_events_per_request",
       ratio(static_cast<double>(t.des_events),
             static_cast<double>(t.des_arrivals)),
       "1"},
      {"sim.des_redirect_share",
       ratio(static_cast<double>(t.des_redirects),
             static_cast<double>(t.des_arrivals)),
       "1"},
      {"obs.des_overhead_share", des_off > 0 ? median(des_on) / des_off - 1 : 0,
       "1"},
      {"obs.invariants_audit_share", self_share("obs", "invariants_audit"),
       "1"},
      {"obs.artifact_bytes", work_per_pass("io", "write_artifact"), "B"},
      {"io.write_s",
       mean(per_root("pass", "io", {"save_assignment", "write_artifact"})),
       "s"},
      {"io.bytes_written", work_per_pass("io", nullptr), "B"},
      {"io.read_s",
       mean(per_root("check", "io", {"load_assignment", "read_artifact"})),
       "s"},
      {"workload.self_share", self_share("workload", nullptr), "1"},
      {"model.self_share", self_share("model", nullptr), "1"},
      {"core.self_share", self_share("core", nullptr), "1"},
      {"baselines.self_share", self_share("baselines", nullptr), "1"},
      {"sim.self_share", self_share("sim", nullptr), "1"},
      {"obs.self_share", self_share("obs", nullptr), "1"},
      {"io.self_share", self_share("io", nullptr), "1"},
      {"pass.remainder_share", self_share("bench", nullptr), "1"},
      {"trace.pass_p50_s", cycle_median(traced, cycle), "s"},
      {"trace.overhead_share",
       untraced.empty() ? 0
                        : ratio(cycle_median(traced, cycle),
                                cycle_median(untraced, cycle)) - 1,
       "1"},
  };
}

/// Chrome trace_event JSON ("ph":"X", microseconds) of every span.
void write_trace(const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  os << "{\"traceEvents\":[";
  const std::vector<Span>& spans = g_spans.spans();
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"work\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.layer, s.begin_s * 1e6,
                  (s.end_s - s.begin_s) * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.work));
    os << buf;
  }
  os << "\n]}\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.out_dir);
  std::unique_ptr<Workload> w = make_workload(args);

  ReferenceKernel reference;
  // Set-up runs several times; the last one's state serves the passes.
  constexpr std::uint32_t kSetups = 3;
  g_spans.set_enabled(args.trace);
  std::vector<double> setup_s;
  g_position = -1;
  for (std::uint32_t i = 0; i < kSetups; ++i) {
    SpanScope span("bench", "setup");
    const auto t0 = Clock::now();
    w->setup(i);
    setup_s.push_back(seconds_since(t0));
    reference.run();
  }

  // Closed loop: the next pass starts when the previous one's checks end.
  // A traced run alternates traced and untraced cycles of passes, which
  // gives the tracing overhead within one process.
  const std::uint64_t cycle = w->cycle_length();
  std::vector<Timing> untraced_s, traced_s;
  std::uint64_t attempted = 0, failed = 0, requests = 0;
  double sim_wall_s = 0;
  const auto start = Clock::now();
  for (std::uint64_t k = 0; k < w->min_passes() || k % cycle != 0 ||
                          seconds_since(start) < args.seconds;
       ++k) {
    const bool traced = args.trace && (k / cycle) % 2 == 0;
    g_position = static_cast<std::int64_t>(k % cycle);
    bool ok = false;
    try {
      w->pass_requests = 0;
      g_spans.set_enabled(traced);
      double wall = 0;
      {
        SpanScope span("bench", "pass");
        const auto t0 = Clock::now();
        w->pass(k);
        wall = seconds_since(t0);
      }
      g_spans.set_enabled(args.trace);
      (traced ? traced_s : untraced_s).push_back({g_position, wall});
      if (w->pass_requests > 0) {
        requests += w->pass_requests;
        sim_wall_s += wall;
      }
      {
        SpanScope span("bench", "check");
        ok = w->check(k, traced);
        if (traced) w->after_traced_pass(k);
      }
      reference.run();
    } catch (const std::exception& e) {
      std::cerr << "pass " << k << " failed: " << e.what() << '\n';
    }
    ++attempted;
    if (!ok) ++failed;
  }
  g_spans.set_enabled(false);

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = layer_metrics(traced_s, untraced_s, cycle);
    write_trace(args.out_dir + "/trace-" + args.workload + "-" +
                std::to_string(args.seed) + ".json");
  } else {
    // Solves of the timed passes; a workload whose passes do not solve
    // reports its set-up solves.
    std::vector<Timing> pass_solves;
    for (const Timing& t : g_tally.solve_s) {
      if (t.position >= 0) pass_solves.push_back(t);
    }
    const double solve_p50 = pass_solves.empty()
                                 ? median(seconds_of(g_tally.solve_s))
                                 : cycle_median(pass_solves, cycle);
    const double setup = median(setup_s);
    const double pass_p50 = cycle_median(untraced_s, cycle);
    const double pass_p90 = quantile(seconds_of(untraced_s), 0.9);
    const double sim_rate = w->sim_requests_per_s(requests, sim_wall_s);
    const double ref_s = reference.median_s();
    const double scale = ratio(kReferenceNominalS, ref_s);
    std::cerr << "measured seconds: setup " << setup << ", pass p50 "
              << pass_p50 << ", pass p90 " << pass_p90 << ", solve p50 "
              << solve_p50 << ", sim requests/s " << sim_rate
              << "; reference kernel median " << ref_s << " s (checksum "
              << reference.sink() % 1000 << ")\n";
    metrics = {
        {"setup_s", setup * scale, "s"},
        {"pass_p50_s", pass_p50 * scale, "s"},
        {"pass_p90_s", pass_p90 * scale, "s"},
        {"solve_p50_s", solve_p50 * scale, "s"},
        {"sim_requests_per_s", ratio(sim_rate, scale), "1/s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"objective_d_rel", w->objective_d_rel, "1"},
        {"response_rel", w->response_rel, "1"},
        {"ok_share",
         ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "1"},
    };
  }
  std::cerr << "perfbench " << args.workload << ": " << kSetups
            << " set-ups, " << attempted << " passes (" << traced_s.size()
            << " traced), " << failed << " failed\n";
  print_result(w->setup_ok && failed == 0, attempted, failed, metrics);
  return 0;
}
