// The recording mask (util/recording.h): each bit turns on its own recorder
// and no other, across the solver, the closed-form simulate paths and the
// DES.
#include "util/recording.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "baselines/static_policies.h"
#include "io/provenance.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "sim/des.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"
#include "workload/generator.h"

namespace mmr {
namespace {

/// How much each recorder holds after one recorded workload.
struct Recorded {
  std::size_t metrics = 0;
  std::size_t trace = 0;
  std::size_t progress = 0;  ///< --progress lines written to stderr
  std::size_t obs = 0;
  std::size_t timeseries = 0;
  std::size_t audit = 0;
  std::size_t flight = 0;
};

/// One run_scenario (a constrained solve, the static and LRU simulations),
/// one simulate_threshold, one DES pass and one phase that outlasts the
/// progress emit interval (fast phases print no progress) with exactly
/// `mask` on.
Recorded record_with(std::uint32_t mask) {
  const testing::RecordingScope scope;
  set_recording(mask);
  set_flight_sample_every(10);
  MetricsRegistry registry;
  ::testing::internal::CaptureStderr();
  {
    const MetricsScope metrics(&registry);
    ExperimentConfig cfg;
    cfg.workload = testing::small_params();
    cfg.sim.requests_per_server = 200;
    cfg.runs = 1;
    cfg.base_seed = 7;
    ScenarioSpec spec;
    spec.storage_fraction = 0.5;
    run_scenario(cfg, spec, nullptr);

    const SystemModel sys = generate_workload(testing::small_params(), 11);
    SimParams sp;
    sp.requests_per_server = 200;
    (void)Simulator(sys, sp).simulate_threshold(13, ThresholdParams{});
    DesParams dp;
    dp.requests_per_server = 200;
    (void)DesSimulator(sys, dp).simulate(make_local_assignment(sys), 13);

    ProgressReporter slow("slow_phase", 2);
    slow.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    slow.tick();
  }
  set_flight_sample_every(100);
  const std::string err = ::testing::internal::GetCapturedStderr();
  const MetricsSnapshot snap = registry.snapshot();
  Recorded r;
  r.metrics = snap.counters.size() + snap.gauges.size();
  r.trace = Tracer::instance().snapshot().size();
  for (std::size_t at = err.find("[mmr] "); at != std::string::npos;
       at = err.find("[mmr] ", at + 1)) {
    ++r.progress;
  }
  r.obs = global_obs_log().size();
  r.timeseries = global_timeseries_log().size();
  r.audit = global_audit_log().size();
  r.flight = global_flight_log().size();
  return r;
}

TEST(Recording, EachBitDrivesOnlyItsRecorder) {
  const struct {
    const char* name;
    std::uint32_t bit;
    std::size_t Recorded::*held;
  } recorders[] = {
      {"metrics", kRecMetrics, &Recorded::metrics},
      {"trace", kRecTrace, &Recorded::trace},
      {"progress", kRecProgress, &Recorded::progress},
      {"obs", kRecObs, &Recorded::obs},
      {"timeseries", kRecTimeseries, &Recorded::timeseries},
      {"audit", kRecAudit, &Recorded::audit},
      {"flight", kRecFlight, &Recorded::flight},
  };
  const std::uint32_t saved = recording_mask();

  const Recorded none = record_with(0);
  for (const auto& r : recorders) {
    EXPECT_EQ(none.*r.held, 0u) << r.name << " recorded with the mask off";
  }
  for (const auto& on : recorders) {
    SCOPED_TRACE(on.name);
    const Recorded got = record_with(on.bit);
    for (const auto& r : recorders) {
      if (&r == &on) {
        EXPECT_GT(got.*r.held, 0u) << r.name << " did not record";
      } else {
        EXPECT_EQ(got.*r.held, 0u) << r.name << " recorded";
      }
    }
  }
  EXPECT_EQ(recording_mask(), saved);
}

}  // namespace
}  // namespace mmr
