// mmrepl_cli — file-based workflow around the library:
//
//   mmrepl_cli generate --out=sys.txt [--seed=1] [--storage=0.6]
//       Generate a Table-1 workload and save it.
//   mmrepl_cli describe --system=sys.txt
//       Print the workload characterization.
//   mmrepl_cli solve --system=sys.txt --out=placement.txt [--no-offload]
//       Run the replication policy and save the placement.
//       [--threads=N] solve with an N-worker pool; [--shards=K] shard the
//       pipeline into K contiguous server groups (needs --threads > 1).
//       The placement is bit-identical at any thread/shard count.
//   mmrepl_cli audit --system=sys.txt --placement=placement.txt
//       Re-check Eq. 8/9/10 and print the objective.
//   mmrepl_cli simulate --system=sys.txt --placement=placement.txt
//       Measure response times under the Sec. 5.1 perturbation model.
//       Quantiles come from streaming sketches (src/obs/), so memory stays
//       bounded at any --requests count. [--slo=R,S,T] [--window=N] tune
//       the SLO evaluation; --sketch-out=<path> (any command that
//       simulates) writes the mmr-sketch JSONL artifact.
//   mmrepl_cli simulate --des --system=sys.txt --placement=placement.txt
//       Discrete-event mode (sim/des.h): servers and the repository queue
//       for real. [--arrival-rate=X] scales the offered load,
//       [--concurrency=N] / [--repo-concurrency=N] set connection slots,
//       [--queue-cap=N] bounds pending connections (Eq. 8 as a queue),
//       [--discipline=fifo|ps] picks the service discipline and
//       [--overflow=redirect|reject] what happens past the cap.
//       [--threads=N --shards=K] shard the per-server event loops; the
//       results are byte-identical at any thread/shard count.
//
// Every command also accepts the run-artifact flags of
// obs/artifact_outputs.h (docs/OBSERVABILITY.md "Artifact flags"):
// --metrics-out / --trace-out for metrics.json / Chrome trace.json,
// --audit-out / --flight-out [--flight-sample=N] for the solver audit log
// and per-request flight recorder, --timeline-out
// [--timeline-interval-ms=100] for the background resource sampler,
// --sketch-out [--window=N --slo=R,S,T] for streaming telemetry,
// --timeseries-out [--ts-window=SECONDS --ts-max-windows=N] and
// --invariants-out for DES queue dynamics and its conservation-law audit,
// --progress for a stderr progress/ETA line, and --mem-budget=<bytes> to
// fail fast (exit 3) before tracked allocations exceed the budget. A bad
// flag value exits 1.
#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <memory>

#include "core/policy.h"
#include "io/serialize.h"
#include "obs/artifact_outputs.h"
#include "obs/obs.h"
#include "sim/des.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/memacct.h"
#include "util/recording.h"
#include "util/thread_pool.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/stats.h"

namespace {

using namespace mmr;

int cmd_generate(const Flags& flags) {
  const std::string out = flags.get_string("out", "");
  MMR_CHECK_MSG(!out.empty(), "generate requires --out=<path>");
  WorkloadParams params;
  params.storage_fraction = flags.get_double("storage", 1.0);
  params.num_servers =
      static_cast<std::uint32_t>(flags.get_count("servers", 10));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const SystemModel sys = generate_workload(params, seed);
  save_system_file(sys, out);
  std::cout << "wrote " << out << ": " << sys.num_pages() << " pages, "
            << sys.num_objects() << " objects, " << sys.num_servers()
            << " servers\n";
  return 0;
}

int cmd_describe(const Flags& flags) {
  const std::string path = flags.get_string("system", "");
  MMR_CHECK_MSG(!path.empty(), "describe requires --system=<path>");
  const SystemModel sys = load_system_file(path);
  std::cout << characterize(sys).to_string();
  return 0;
}

int cmd_solve(const Flags& flags) {
  const std::string sys_path = flags.get_string("system", "");
  const std::string out = flags.get_string("out", "");
  MMR_CHECK_MSG(!sys_path.empty() && !out.empty(),
                "solve requires --system=<path> --out=<path>");
  const SystemModel sys = load_system_file(sys_path);
  // Pre-flight: the assignment's bit-tables are the largest solver
  // allocation; fail before thrashing when a --mem-budget is set.
  memacct::check_headroom(Assignment::estimate_bits_bytes(sys) +
                              Assignment::estimate_caches_bytes(sys),
                          "assignment tables");
  PolicyOptions options;
  options.offload_enabled = !flags.get_bool("no-offload", false);
  options.weights.alpha1 = flags.get_double("alpha1", 2.0);
  options.weights.alpha2 = flags.get_double("alpha2", 1.0);
  const std::uint64_t threads =
      flags.get_count("threads", 1, ThreadPool::kMaxThreads);
  options.shards = static_cast<std::uint32_t>(flags.get_count("shards", 0));
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  const PolicyResult result = run_replication_policy(sys, options);
  std::cout << result.summary();
  save_assignment_file(result.assignment, out);
  std::cout << "wrote " << out << '\n';
  return result.feasible ? 0 : 2;
}

int cmd_audit(const Flags& flags) {
  const std::string sys_path = flags.get_string("system", "");
  const std::string asg_path = flags.get_string("placement", "");
  MMR_CHECK_MSG(!sys_path.empty() && !asg_path.empty(),
                "audit requires --system=<path> --placement=<path>");
  const SystemModel sys = load_system_file(sys_path);
  const Assignment asg = load_assignment_file(sys, asg_path);
  const ConstraintReport report = audit_constraints(sys, asg);
  const Weights w{flags.get_double("alpha1", 2.0),
                  flags.get_double("alpha2", 1.0)};
  std::cout << "D1 = " << format_double(objective_d1(sys, asg), 2)
            << "  D2 = " << format_double(objective_d2(sys, asg), 2)
            << "  D = " << format_double(objective_total(sys, asg, w), 2)
            << '\n';
  if (report.ok()) {
    std::cout << "all constraints satisfied\n";
    return 0;
  }
  for (const auto& v : report.violations) {
    std::cout << "VIOLATION: " << v.describe() << '\n';
  }
  return 2;
}

int cmd_simulate_des(const Flags& flags, const SystemModel& sys,
                     const Assignment& asg) {
  DesParams params;
  params.requests_per_server = static_cast<std::uint32_t>(
      flags.get_count("requests", 10000));
  params.arrival_rate_scale = flags.get_double("arrival-rate", 1.0);
  params.server_concurrency =
      static_cast<std::uint32_t>(flags.get_count("concurrency", 8));
  params.repo_concurrency =
      static_cast<std::uint32_t>(flags.get_count("repo-concurrency", 64));
  params.queue_cap =
      static_cast<std::uint32_t>(flags.get_count("queue-cap", 1024));
  params.discipline =
      parse_queue_discipline(flags.get_string("discipline", "fifo"));
  params.overflow =
      parse_overflow_policy(flags.get_string("overflow", "redirect"));
  params.shards = static_cast<std::uint32_t>(flags.get_count("shards", 0));
  const std::uint64_t threads = std::max<std::uint64_t>(
      1, flags.get_count("threads", 1, ThreadPool::kMaxThreads));
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) {
    pool = std::make_unique<ThreadPool>(threads);
    params.pool = pool.get();
  }
  set_recording(recording_mask() | kRecObs);
  const DesSimulator sim(sys, params);
  const DesMetrics m = sim.simulate(
      asg, static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  set_obs_gauges();
  const std::vector<ObsShard> groups = global_obs_log().snapshot();
  QuantileSketch sojourn(kObsAlpha, kObsMaxBuckets);
  QuantileSketch stretch(kObsAlpha, kObsMaxBuckets);
  MMR_CHECK_MSG(merge_obs_groups(groups, &sojourn, &stretch),
                "simulation produced no telemetry");
  TextTable t({"metric", "value"});
  t.add_row({"arrivals", std::to_string(m.arrivals)});
  t.add_row({"completions", std::to_string(m.completions)});
  t.add_row({"rejected", std::to_string(m.rejects)});
  t.add_row({"redirected to R", std::to_string(m.redirects)});
  t.add_row({"mean sojourn [s]", format_double(m.sojourn.mean(), 3)});
  t.add_row({"p50 sojourn [s]", format_double(sojourn.quantile(0.5), 3)});
  t.add_row({"p95 sojourn [s]", format_double(sojourn.quantile(0.95), 3)});
  t.add_row({"p99 sojourn [s]", format_double(sojourn.quantile(0.99), 3)});
  t.add_row({"p99 stretch", format_double(stretch.quantile(0.99), 2)});
  t.add_row({"mean queue wait [s]", format_double(m.wait.mean(), 3)});
  t.add_row({"server utilization", format_share(m.server_utilization)});
  t.add_row({"repository utilization", format_share(m.repo_utilization)});
  t.add_row({"peak server queue", std::to_string(m.queue_peak)});
  t.add_row({"peak repository queue", std::to_string(m.repo_queue_peak)});
  t.add_row({"kernel events", std::to_string(m.events)});
  t.print(std::cout,
          "discrete-event simulation (" +
              std::to_string(params.requests_per_server) +
              " requests/server, " +
              std::string(queue_discipline_name(params.discipline)) + ", " +
              std::string(overflow_policy_name(params.overflow)) + ")");
  return 0;
}

int cmd_simulate(const Flags& flags) {
  const std::string sys_path = flags.get_string("system", "");
  const std::string asg_path = flags.get_string("placement", "");
  MMR_CHECK_MSG(!sys_path.empty() && !asg_path.empty(),
                "simulate requires --system=<path> --placement=<path>");
  const SystemModel sys = load_system_file(sys_path);
  const Assignment asg = load_assignment_file(sys, asg_path);
  if (flags.get_bool("des", false)) return cmd_simulate_des(flags, sys, asg);
  SimParams params;
  params.requests_per_server = static_cast<std::uint32_t>(
      flags.get_count("requests", 10000));
  // Quantiles come from the streaming sketch instead of a per-request
  // sample vector: bounded memory at any request count, values within the
  // sketch's relative-error bound of the exact sample quantiles.
  set_recording(recording_mask() | kRecObs);
  const Simulator sim(sys, params);
  const SimMetrics m = sim.simulate(
      asg, static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  set_obs_gauges();
  const std::vector<ObsShard> groups = global_obs_log().snapshot();
  QuantileSketch response(kObsAlpha, kObsMaxBuckets);
  QuantileSketch stretch(kObsAlpha, kObsMaxBuckets);
  MMR_CHECK_MSG(merge_obs_groups(groups, &response, &stretch),
                "simulation produced no telemetry");
  TextTable t({"metric", "value"});
  t.add_row({"mean page response [s]",
             format_double(m.page_response.mean(), 2)});
  t.add_row({"p50 [s]", format_double(response.quantile(0.5), 2)});
  t.add_row({"p90 [s]", format_double(response.quantile(0.9), 2)});
  t.add_row({"p99 [s]", format_double(response.quantile(0.99), 2)});
  t.add_row({"p99.9 [s]", format_double(response.quantile(0.999), 2)});
  t.add_row({"p99 stretch", format_double(stretch.quantile(0.99), 2)});
  const SloReport slo = groups.front().windows.evaluate();
  t.add_row({"SLO attainment", format_share(slo.attainment)});
  t.add_row({"worst window burn", format_double(slo.worst_burn_1, 2)});
  t.add_row({"mean optional download [s]",
             m.optional_time.empty()
                 ? "-"
                 : format_double(m.optional_time.mean(), 2)});
  t.print(std::cout, "simulation (" +
                         std::to_string(params.requests_per_server) +
                         " requests/server)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  const Flags flags = Flags::parse(argc, argv);
  const std::string usage =
      "usage: mmrepl_cli <generate|describe|solve|audit|simulate> "
      "[--flags]\n(see the header of examples/mmrepl_cli.cpp)\n";
  if (flags.positional().empty()) {
    std::cerr << usage;
    return 1;
  }
  const std::string& cmd = flags.positional()[0];
  const auto start = std::chrono::steady_clock::now();
  try {
    ArtifactOutputs outputs;
    outputs.bind(flags);
    int rc;
    if (cmd == "generate") {
      rc = cmd_generate(flags);
    } else if (cmd == "describe") {
      rc = cmd_describe(flags);
    } else if (cmd == "solve") {
      rc = cmd_solve(flags);
    } else if (cmd == "audit") {
      rc = cmd_audit(flags);
    } else if (cmd == "simulate") {
      rc = cmd_simulate(flags);
    } else {
      std::cerr << "unknown command '" << cmd << "'\n" << usage;
      return 1;
    }
    if (outputs.any()) {
      RunMeta meta;
      meta.tool = "mmrepl_cli";
      meta.add("command", cmd);
      outputs.stamp(meta);
      meta.add("wall_seconds",
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count());
      outputs.write(meta);
    }
    return rc;
  } catch (const memacct::MemBudgetError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return memacct::kMemBudgetExitCode;
  } catch (const std::exception& e) {
    // CheckError (bad input, failed checks) and anything else, such as an
    // allocation failure: a message and a clean non-zero exit, never abort.
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
