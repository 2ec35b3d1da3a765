#include "obs/artifact_outputs.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>

#include "io/provenance.h"
#include "obs/invariants.h"
#include "obs/obs.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "util/check.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/recording.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mmr {

namespace {

constexpr std::uint64_t kMaxI64 = std::numeric_limits<std::int64_t>::max();

}  // namespace

void ArtifactOutputs::describe(Flags& flags) {
  flags.describe("metrics-out", "write metrics.json to this path on exit")
      .describe("trace-out",
                "enable tracing; write Chrome trace.json to this path on exit")
      .describe("audit-out",
                "enable the solver audit log; write audit JSONL on exit")
      .describe("flight-out",
                "enable the flight recorder; write flight JSONL on exit")
      .describe("flight-sample",
                "flight recorder samples every Nth page arrival (default 100)")
      .describe("timeline-out",
                "start the resource sampler; write mmr-timeline JSONL on exit")
      .describe("timeline-interval-ms",
                "resource sampler tick interval (default 100)")
      .describe("sketch-out",
                "enable streaming telemetry; write mmr-sketch JSONL on exit")
      .describe("window", "SLO window width in virtual seconds (default 60)")
      .describe("slo",
                "SLO spec RESP_S,STRETCH_X,TARGET (default 2.0,1.5,0.99)")
      .describe("timeseries-out",
                "enable DES queue-dynamics collection; write mmr-timeseries "
                "JSONL on exit")
      .describe("ts-window",
                "queue-dynamics base window width in virtual seconds "
                "(default 60)")
      .describe("ts-max-windows",
                "cells per station before windows coarsen (default 512, "
                "0 = never)")
      .describe("invariants-out",
                "audit DES conservation laws; write mmr-invariants JSONL on "
                "exit")
      .describe("progress", "single-line stderr progress/ETA per solver phase")
      .describe("mem-budget",
                "abort (exit 3) when tracked memory exceeds this many bytes");
}

void ArtifactOutputs::bind(const Flags& flags) {
  metrics_ = flags.get_string("metrics-out", "");
  trace_ = flags.get_string("trace-out", "");
  audit_ = flags.get_string("audit-out", "");
  flight_ = flags.get_string("flight-out", "");
  timeline_ = flags.get_string("timeline-out", "");
  sketch_ = flags.get_string("sketch-out", "");
  timeseries_ = flags.get_string("timeseries-out", "");
  invariants_ = flags.get_string("invariants-out", "");
  // Check every count before any recorder changes state.
  const std::uint64_t flight_sample =
      flags.get_count("flight-sample", 100);
  const std::uint64_t interval_ms =
      flags.get_count("timeline-interval-ms", 100);
  TimeseriesConfig tscfg = timeseries_config();
  tscfg.max_windows =
      flags.get_count("ts-max-windows", tscfg.max_windows, kMaxI64);
  mem_budget_ = flags.get_count("mem-budget", 0, kMaxI64);

  std::uint32_t mask = kRecMetrics;
  if (flags.get_bool("progress", false)) mask |= kRecProgress;
  if (mem_budget_ > 0) memacct::set_budget_bytes(mem_budget_);
  ObsConfig ocfg = obs_config();
  ocfg.window_s = flags.get_double("window", ocfg.window_s);
  const std::string slo_spec = flags.get_string("slo", "");
  if (!slo_spec.empty()) ocfg.slo = parse_slo_spec(slo_spec);
  set_obs_config(ocfg);
  if (!sketch_.empty()) mask |= kRecObs;
  // The invariant auditor consumes the queue-dynamics collector, so either
  // output enables it.
  if (!timeseries_.empty() || !invariants_.empty()) {
    tscfg.window_s = flags.get_double("ts-window", tscfg.window_s);
    set_timeseries_config(tscfg);
    mask |= kRecTimeseries;
  }
  if (!trace_.empty()) mask |= kRecTrace;
  if (!audit_.empty()) mask |= kRecAudit;
  if (!flight_.empty()) {
    mask |= kRecFlight;
    set_flight_sample_every(static_cast<std::uint32_t>(flight_sample));
  }
  set_recording(mask);
  if (!timeline_.empty()) {
    TimelineOptions topt;
    topt.interval_ms =
        static_cast<std::uint32_t>(std::max<std::uint64_t>(1, interval_ms));
    global_timeline_sampler().start(topt);
  }
}

bool ArtifactOutputs::any() const {
  return !metrics_.empty() || !trace_.empty() || !audit_.empty() ||
         !flight_.empty() || !timeline_.empty() || !sketch_.empty() ||
         !timeseries_.empty() || !invariants_.empty();
}

void ArtifactOutputs::stamp(RunMeta& meta) const {
  if (!flight_.empty()) {
    meta.add("flight_sample",
             static_cast<std::uint64_t>(flight_sample_every()));
  }
  if (!sketch_.empty()) {
    meta.add("sketch_alpha", kObsAlpha)
        .add("sketch_window_s", obs_config().window_s);
  }
  if (!timeseries_.empty() || !invariants_.empty()) {
    meta.add("ts_window_s", timeseries_config().window_s);
  }
  if (mem_budget_ > 0) meta.add("mem_budget", mem_budget_);
}

void ArtifactOutputs::write(const RunMeta& meta) const {
  using Body = std::function<void(std::ostream&)>;
  const auto emit = [](const std::string& path, const Body& body) {
    if (!path.empty()) write_artifact_file(path, body);
  };
  emit(metrics_, [&](std::ostream& os) {
    write_metrics_json(os, current_metrics().snapshot(), meta);
  });
  emit(trace_, [&](std::ostream& os) {
    write_trace_json(os, Tracer::instance(), meta);
  });
  emit(audit_, [&](std::ostream& os) {
    write_audit_jsonl(os, global_audit_log().snapshot(), meta);
  });
  emit(flight_, [&](std::ostream& os) {
    write_flight_jsonl(os, global_flight_log().snapshot(),
                       global_flight_log().dropped(), meta);
  });
  if (!timeline_.empty()) {
    TimelineSampler& sampler = global_timeline_sampler();
    const std::uint64_t dropped = sampler.dropped();
    sampler.stop();
    emit(timeline_, [&](std::ostream& os) {
      write_timeline_jsonl(os, sampler.snapshot(), dropped, meta);
    });
  }
  emit(sketch_, [&](std::ostream& os) {
    write_sketch_jsonl(os, global_obs_log().snapshot(), obs_config(),
                       global_obs_log().dropped(), meta);
  });
  emit(timeseries_, [&](std::ostream& os) {
    write_timeseries_jsonl(os, global_timeseries_log().snapshot(),
                           timeseries_config(),
                           global_timeseries_log().dropped(), meta);
  });
  emit(invariants_, [&](std::ostream& os) {
    write_invariants_jsonl(os,
                           audit_timeseries(global_timeseries_log().snapshot()),
                           InvariantTolerances{}, meta);
  });
}

}  // namespace mmr
