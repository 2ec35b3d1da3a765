#include "util/metrics.h"

#include <chrono>
#include <vector>

#include "util/check.h"

namespace mmr {

namespace {

thread_local MetricsRegistry* tls_registry = nullptr;
thread_local std::string tls_label;

}  // namespace

void MetricGauge::set(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_ = v;
  stats_.add(v);
}

GaugeStat MetricGauge::stat() const {
  std::lock_guard<std::mutex> lock(mutex_);
  GaugeStat s;
  s.count = stats_.count();
  s.last = last_;
  if (!stats_.empty()) {
    s.mean = stats_.mean();
    s.min = stats_.min();
    s.max = stats_.max();
  }
  return s;
}

void MetricGauge::merge_from(const MetricGauge& other) {
  // Copy under the source lock first; never hold both locks at once.
  RunningStats other_stats;
  double other_last;
  std::size_t other_count;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    other_stats = other.stats_;
    other_last = other.last_;
    other_count = other.stats_.count();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (other_count > 0 && stats_.empty()) last_ = other_last;
  stats_.merge(other_stats);
}

void MetricGauge::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  last_ = 0;
  stats_ = RunningStats();
}

MetricCounter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

MetricGauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  MMR_CHECK_MSG(&other != this, "cannot merge a registry into itself");
  // Snapshot the other registry's map shape under its lock, then fold each
  // instrument without holding either map lock (instrument updates are
  // internally synchronized).
  std::vector<std::pair<const std::string*, const MetricCounter*>> counters;
  std::vector<std::pair<const std::string*, const MetricGauge*>> gauges;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    for (const auto& [name, c] : other.counters_) {
      counters.emplace_back(&name, &c);
    }
    for (const auto& [name, g] : other.gauges_) gauges.emplace_back(&name, &g);
  }
  for (const auto& [name, c] : counters) counter(*name).add(c->value());
  for (const auto& [name, g] : gauges) gauge(*name).merge_from(*g);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.stat();
  return snap;
}

MetricsRegistry& global_metrics() {
  // Leaked on purpose: atexit artifact writers and worker-thread teardown
  // may run after static destruction would have happened.
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

MetricsRegistry& current_metrics() {
  return tls_registry != nullptr ? *tls_registry : global_metrics();
}

MetricsScope::MetricsScope(MetricsRegistry* registry)
    : prev_(tls_registry), installed_(registry != nullptr) {
  if (installed_) tls_registry = registry;
}

MetricsScope::~MetricsScope() {
  if (installed_) tls_registry = prev_;
}

const std::string& current_metric_label() { return tls_label; }

MetricLabelScope::MetricLabelScope(std::string label)
    : prev_(std::move(tls_label)) {
  tls_label = std::move(label);
}

MetricLabelScope::~MetricLabelScope() { tls_label = std::move(prev_); }

std::uint64_t monotonic_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace mmr
