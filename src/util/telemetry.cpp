#include "util/telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include "util/metrics.h"
#include "util/recording.h"

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mmr {

// ---------------------------------------------------------------------------
// Phase tracking.

namespace {

std::atomic<const char*> g_phase{"idle"};

}  // namespace

const char* telemetry_current_phase() {
  return g_phase.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Progress reporting.

struct ProgressReporter::Impl {
  const char* phase;
  std::uint64_t total;
  std::uint64_t start_ns;
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> last_emit_ns{0};
  std::atomic<bool> emitted{false};

  /// ~5 emits/second keeps the stderr line readable and the throttle cheap.
  static constexpr std::uint64_t kEmitEveryNs = 200'000'000;

  void emit(bool final) {
    const std::uint64_t n = std::min(done.load(std::memory_order_relaxed),
                                     total);
    const double elapsed =
        static_cast<double>(monotonic_now_ns() - start_ns) * 1e-9;
    const double pct =
        total == 0 ? 100.0
                   : 100.0 * static_cast<double>(n) / static_cast<double>(total);
    char tail[48];
    if (final) {
      std::snprintf(tail, sizeof(tail), " done\n");
    } else if (n > 0 && n < total) {
      const double eta =
          elapsed * static_cast<double>(total - n) / static_cast<double>(n);
      std::snprintf(tail, sizeof(tail), " eta %.1fs", eta);
    } else {
      tail[0] = '\0';
    }
    // One write to stderr; \r keeps it a single updating line.
    std::fprintf(stderr, "\r[mmr] %-18s %llu/%llu (%5.1f%%) elapsed %.1fs%s",
                 phase, static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(total), pct, elapsed, tail);
    std::fflush(stderr);
    emitted.store(true, std::memory_order_relaxed);
  }
};

ProgressReporter::ProgressReporter(const char* phase, std::uint64_t total) {
  if (!recording(kRecProgress)) return;
  impl_ = new Impl();
  impl_->phase = phase;
  impl_->total = total;
  impl_->start_ns = monotonic_now_ns();
  // The first emit waits a full interval, so a fast phase prints nothing.
  impl_->last_emit_ns.store(impl_->start_ns, std::memory_order_relaxed);
}

ProgressReporter::~ProgressReporter() {
  if (impl_ == nullptr) return;
  // A final line only when work was long enough to have shown one already,
  // so fast phases stay silent.
  if (impl_->emitted.load(std::memory_order_relaxed)) impl_->emit(true);
  delete impl_;
}

void ProgressReporter::tick(std::uint64_t n) {
  if (impl_ == nullptr) return;
  impl_->done.fetch_add(n, std::memory_order_relaxed);
  const std::uint64_t now = monotonic_now_ns();
  std::uint64_t last = impl_->last_emit_ns.load(std::memory_order_relaxed);
  if (now - last < Impl::kEmitEveryNs) return;
  // One thread wins the emit; losers skip (their progress shows next time).
  if (impl_->last_emit_ns.compare_exchange_strong(last, now,
                                                  std::memory_order_relaxed)) {
    impl_->emit(false);
  }
}

// ---------------------------------------------------------------------------
// Process resource probes.

std::uint64_t current_rss_bytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

std::uint64_t peak_rss_bytes() {
#ifdef __linux__
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

CpuTimes process_cpu_times() {
  CpuTimes t;
#ifdef __linux__
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return t;
  t.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  t.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
#endif
  return t;
}

// ---------------------------------------------------------------------------
// Hardware perf counters.

namespace {

#ifdef __linux__
int perf_open_one(std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  // User-space only: permitted at perf_event_paranoid <= 2 without
  // CAP_PERFMON, which is the widest net a non-privileged process can cast.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // Follow threads spawned after open; kernels aggregate inherited counts
  // on read (best effort — documented as such in docs/FORMATS.md).
  attr.inherit = 1;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0UL));
}

std::uint64_t perf_read_one(int fd) {
  if (fd < 0) return 0;
  std::uint64_t v = 0;
  if (::read(fd, &v, sizeof(v)) != static_cast<ssize_t>(sizeof(v))) return 0;
  return v;
}
#endif

}  // namespace

PerfCounters::~PerfCounters() { close(); }

bool PerfCounters::open() {
#ifdef __linux__
  if (available_) return true;
  static constexpr std::uint64_t kConfigs[4] = {
      PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
      PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};
  for (int i = 0; i < 4; ++i) {
    fds_[i] = perf_open_one(kConfigs[i]);
    if (fds_[i] < 0) {
      // All-or-nothing: partial counter sets would be misleading.
      close();
      return false;
    }
  }
  available_ = true;
  return true;
#else
  return false;
#endif
}

void PerfCounters::close() {
#ifdef __linux__
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
#endif
  available_ = false;
}

PerfCounterValues PerfCounters::read() const {
  PerfCounterValues v;
#ifdef __linux__
  if (!available_) return v;
  v.cycles = perf_read_one(fds_[0]);
  v.instructions = perf_read_one(fds_[1]);
  v.cache_misses = perf_read_one(fds_[2]);
  v.branch_misses = perf_read_one(fds_[3]);
#endif
  return v;
}

// ---------------------------------------------------------------------------
// Timeline sampler.

struct TimelineSampler::Impl {
  mutable std::mutex mutex;  ///< guards samples/phase_perf/last_counters
  std::mutex cv_mutex;
  std::condition_variable cv;
  std::thread worker;
  std::atomic<bool> running{false};
  bool stop_requested = false;  ///< under cv_mutex

  TimelineOptions options;
  PerfCounters perf;
  std::atomic<bool> perf_active{false};
  std::atomic<std::uint64_t> perf_epoch{0};

  std::uint64_t start_ns = 0;
  std::vector<TimelineSample> samples;
  std::map<std::string, PhasePerfTotals> phase_perf;
  std::map<std::string, std::uint64_t> last_counters;
  std::atomic<std::uint64_t> dropped{0};

  /// Bounds sampler memory on week-long runs (~100 MB of samples).
  static constexpr std::size_t kMaxSamples = 1'000'000;

  void take_sample() {
    TimelineSample s;
    s.t_ms = (monotonic_now_ns() - start_ns) / 1'000'000;
    s.rss_bytes = current_rss_bytes();
    s.peak_rss_bytes = mmr::peak_rss_bytes();
    s.phase = telemetry_current_phase();
    for (std::size_t c = 0; c < memacct::kCategoryCount; ++c) {
      const auto cat = static_cast<memacct::Category>(c);
      s.mem_current[c] = memacct::current_bytes(cat);
      s.mem_peak[c] = memacct::peak_bytes(cat);
    }
    if (perf.available()) {
      s.counters_valid = true;
      s.counters = perf.read();
    }
    // Counter deltas come from the global registry: per-seed MetricsScope
    // registries merge into it when their runs finish, so the timeline sees
    // progress at run granularity (and continuously for serial tools).
    const MetricsSnapshot snap = global_metrics().snapshot();
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& [name, value] : snap.counters) {
      const auto it = last_counters.find(name);
      const std::uint64_t prev = it == last_counters.end() ? 0 : it->second;
      if (value > prev) s.metric_deltas[name] = value - prev;
      last_counters[name] = value;
    }
    if (samples.size() < kMaxSamples) {
      samples.push_back(std::move(s));
    } else {
      dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void run() {
    std::unique_lock<std::mutex> lock(cv_mutex);
    while (!stop_requested) {
      cv.wait_for(lock, std::chrono::milliseconds(options.interval_ms),
                  [&] { return stop_requested; });
      if (stop_requested) break;
      lock.unlock();
      take_sample();
      lock.lock();
    }
  }
};

TimelineSampler::Impl& TimelineSampler::impl() const {
  static Impl* instance = new Impl();  // leaked: atexit-safe
  return *instance;
}

void TimelineSampler::start(const TimelineOptions& options) {
  Impl& i = impl();
  if (i.running.load()) return;
  {
    std::lock_guard<std::mutex> lock(i.mutex);
    i.samples.clear();
    i.phase_perf.clear();
    i.last_counters.clear();
  }
  i.options = options;
  i.options.interval_ms = std::max<std::uint32_t>(1, options.interval_ms);
  i.dropped.store(0);
  i.start_ns = monotonic_now_ns();
  if (options.perf_counters && i.perf.open()) {
    i.perf_epoch.fetch_add(1);
    i.perf_active.store(true);
  }
  {
    std::lock_guard<std::mutex> lock(i.cv_mutex);
    i.stop_requested = false;
  }
  i.take_sample();  // t=0 baseline
  i.worker = std::thread([&i] { i.run(); });
  i.running.store(true);
}

void TimelineSampler::stop() {
  Impl& i = impl();
  if (!i.running.load()) return;
  {
    std::lock_guard<std::mutex> lock(i.cv_mutex);
    i.stop_requested = true;
  }
  i.cv.notify_all();
  i.worker.join();
  i.take_sample();  // end-state sample
  i.perf_active.store(false);
  i.perf.close();
  i.running.store(false);
}

bool TimelineSampler::running() const { return impl().running.load(); }

TimelineSnapshot TimelineSampler::snapshot() const {
  Impl& i = impl();
  TimelineSnapshot out;
  out.interval_ms = i.options.interval_ms;
  out.counters_available = i.perf.available() || i.perf_active.load();
  std::lock_guard<std::mutex> lock(i.mutex);
  out.samples = i.samples;
  out.phase_perf = i.phase_perf;
  if (!out.phase_perf.empty()) out.counters_available = true;
  return out;
}

std::uint64_t TimelineSampler::dropped() const {
  return impl().dropped.load();
}

TimelineSampler& global_timeline_sampler() {
  static TimelineSampler* sampler = new TimelineSampler();  // leaked
  return *sampler;
}

// ---------------------------------------------------------------------------
// Phase scope (needs the sampler impl for per-phase perf attribution).

PhaseScope::PhaseScope(const char* name)
    : span_(name),
      name_(name),
      prev_(g_phase.exchange(name, std::memory_order_relaxed)) {
  TimelineSampler::Impl& i = global_timeline_sampler().impl();
  if (i.perf_active.load(std::memory_order_relaxed)) {
    perf_active_ = true;
    perf_epoch_ = i.perf_epoch.load(std::memory_order_relaxed);
    entry_ = i.perf.read();
  }
}

PhaseScope::~PhaseScope() {
  g_phase.store(prev_, std::memory_order_relaxed);
  if (!perf_active_) return;
  TimelineSampler::Impl& i = global_timeline_sampler().impl();
  if (!i.perf_active.load(std::memory_order_relaxed)) return;
  if (i.perf_epoch.load(std::memory_order_relaxed) != perf_epoch_) return;
  const PerfCounterValues exit = i.perf.read();
  // Saturating deltas: a counter reset under us must not wrap.
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : 0;
  };
  std::lock_guard<std::mutex> lock(i.mutex);
  PhasePerfTotals& t = i.phase_perf[name_];
  ++t.entries;
  t.values.cycles += delta(exit.cycles, entry_.cycles);
  t.values.instructions += delta(exit.instructions, entry_.instructions);
  t.values.cache_misses += delta(exit.cache_misses, entry_.cache_misses);
  t.values.branch_misses += delta(exit.branch_misses, entry_.branch_misses);
}

}  // namespace mmr
