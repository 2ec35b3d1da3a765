#include "util/metrics.h"

#include <vector>

#include "util/check.h"

namespace mmr {

namespace {

std::atomic<bool> g_metrics_enabled{true};

thread_local MetricsRegistry* tls_registry = nullptr;
thread_local std::string tls_label;

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

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

void MetricTimer::record_ns(std::uint64_t ns) {
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t cur = min_ns_.load(std::memory_order_relaxed);
  while (ns < cur &&
         !min_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = max_ns_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

TimerStat MetricTimer::stat() const {
  TimerStat s;
  s.count = count_.load(std::memory_order_relaxed);
  constexpr double kNs = 1e-9;
  s.total_s = static_cast<double>(total_ns_.load(std::memory_order_relaxed)) *
              kNs;
  if (s.count > 0) {
    s.mean_s = s.total_s / static_cast<double>(s.count);
    s.min_s = static_cast<double>(min_ns_.load(std::memory_order_relaxed)) *
              kNs;
    s.max_s = static_cast<double>(max_ns_.load(std::memory_order_relaxed)) *
              kNs;
  }
  return s;
}

void MetricTimer::merge_from(const MetricTimer& other) {
  const std::uint64_t n = other.count_.load(std::memory_order_relaxed);
  if (n == 0) return;
  count_.fetch_add(n, std::memory_order_relaxed);
  total_ns_.fetch_add(other.total_ns_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  const std::uint64_t omin = other.min_ns_.load(std::memory_order_relaxed);
  std::uint64_t cur = min_ns_.load(std::memory_order_relaxed);
  while (omin < cur && !min_ns_.compare_exchange_weak(
                           cur, omin, std::memory_order_relaxed)) {
  }
  const std::uint64_t omax = other.max_ns_.load(std::memory_order_relaxed);
  cur = max_ns_.load(std::memory_order_relaxed);
  while (omax > cur && !max_ns_.compare_exchange_weak(
                           cur, omax, std::memory_order_relaxed)) {
  }
}

void MetricTimer::reset() {
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(UINT64_MAX, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

MetricCounter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

MetricGauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

MetricTimer& MetricsRegistry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return timers_[name];
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  MMR_CHECK_MSG(&other != this, "cannot merge a registry into itself");
  // Snapshot the other registry's map shape under its lock, then fold each
  // instrument without holding either map lock (instrument updates are
  // internally synchronized).
  std::vector<std::pair<const std::string*, const MetricCounter*>> counters;
  std::vector<std::pair<const std::string*, const MetricGauge*>> gauges;
  std::vector<std::pair<const std::string*, const MetricTimer*>> timers;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    for (const auto& [name, c] : other.counters_) {
      counters.emplace_back(&name, &c);
    }
    for (const auto& [name, g] : other.gauges_) gauges.emplace_back(&name, &g);
    for (const auto& [name, t] : other.timers_) timers.emplace_back(&name, &t);
  }
  for (const auto& [name, c] : counters) counter(*name).add(c->value());
  for (const auto& [name, g] : gauges) gauge(*name).merge_from(*g);
  for (const auto& [name, t] : timers) timer(*name).merge_from(*t);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, t] : timers_) t.reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.stat();
  for (const auto& [name, t] : timers_) snap.timers[name] = t.stat();
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
