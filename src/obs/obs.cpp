#include "obs/obs.h"

#include <mutex>

#include "util/memacct.h"
#include "util/metrics.h"

namespace mmr {

namespace {

std::mutex& config_mutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

ObsConfig& mutable_config() {
  static ObsConfig* cfg = new ObsConfig();
  return *cfg;
}

}  // namespace

ObsConfig obs_config() {
  std::lock_guard<std::mutex> lock(config_mutex());
  return mutable_config();
}

void set_obs_config(const ObsConfig& config) {
  std::lock_guard<std::mutex> lock(config_mutex());
  mutable_config() = config;
}

ObsShard::ObsShard(const ObsConfig& config)
    : response(kObsAlpha, kObsMaxBuckets),
      stretch(kObsAlpha, kObsMaxBuckets),
      hot(kObsHotCapacity),
      windows(config.window_s, config.slo, kObsAlpha, kObsWindowBuckets) {}

void ObsShard::observe(PageId page, ServerId server, double t,
                       double response_s, double stretch_x,
                       double miss_cost_s) {
  ++requests;
  // The response value feeds two same-alpha sketches (the shard-global one
  // and the window cell's), so compute its log-bucket index once.
  const std::int32_t idx = response_s <= QuantileSketch::kMinTrackable
                               ? 0
                               : response.bucket_index(response_s);
  response.add_indexed(response_s, idx);
  stretch.add(stretch_x);
  hot.add(pack_hot_key(page, server), miss_cost_s);
  windows.observe(t, response_s, idx, stretch_x);
}

void ObsShard::merge(const ObsShard& other) {
  requests += other.requests;
  response.merge(other.response);
  stretch.merge(other.stretch);
  hot.merge(other.hot);
  windows.merge(other.windows);
}

std::size_t ObsShard::approx_bytes() const {
  return sizeof(*this) + policy.capacity() + response.approx_bytes() +
         stretch.approx_bytes() + hot.approx_bytes() +
         windows.approx_bytes();
}

ObsLog& global_obs_log() {
  // Leaked on purpose: the global log must outlive static destructors.
  static ObsLog* log = new ObsLog(memacct::Category::kObsSketches);
  return *log;
}

bool merge_obs_groups(const std::vector<ObsShard>& groups,
                      QuantileSketch* response_out,
                      QuantileSketch* stretch_out) {
  bool any = false;
  for (const ObsShard& g : groups) {
    if (g.requests == 0) continue;
    if (!any) {
      *response_out = g.response;
      *stretch_out = g.stretch;
      any = true;
    } else {
      response_out->merge(g.response);
      stretch_out->merge(g.stretch);
    }
  }
  return any;
}

void set_obs_gauges() {
  const std::vector<ObsShard> groups = global_obs_log().snapshot();
  QuantileSketch response(kObsAlpha, kObsMaxBuckets);
  QuantileSketch stretch(kObsAlpha, kObsMaxBuckets);
  if (!merge_obs_groups(groups, &response, &stretch)) return;
  MMR_GAUGE("obs.requests", static_cast<double>(response.count()));
  MMR_GAUGE("obs.response_p50", response.quantile(0.50));
  MMR_GAUGE("obs.response_p95", response.quantile(0.95));
  MMR_GAUGE("obs.response_p99", response.quantile(0.99));
  MMR_GAUGE("obs.response_p999", response.quantile(0.999));
  MMR_GAUGE("obs.stretch_p50", stretch.quantile(0.50));
  MMR_GAUGE("obs.stretch_p95", stretch.quantile(0.95));
  MMR_GAUGE("obs.stretch_p99", stretch.quantile(0.99));
  MMR_GAUGE("obs.stretch_p999", stretch.quantile(0.999));
}

}  // namespace mmr
