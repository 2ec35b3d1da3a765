#include "util/trace.h"

#include <algorithm>
#include <mutex>
#include <ostream>

#include "util/json.h"
#include "util/metrics.h"
#include "util/recording.h"

namespace mmr {

namespace {

/// Flush threshold so long-lived worker threads do not hoard events.
constexpr std::size_t kFlushAtEvents = 4096;

struct ThreadBuffer;

struct TracerState {
  std::mutex mutex;
  std::vector<TraceEvent> flushed;
  /// Live threads' buffers, so snapshot() can drain spans completed on
  /// threads that have not exited (e.g. parked ThreadPool workers).
  std::vector<ThreadBuffer*> live;
  std::uint32_t next_tid = 1;
};

TracerState& state() {
  // Leaked: thread_local buffer destructors may run at process teardown.
  static TracerState* s = new TracerState();
  return *s;
}

/// Nullable view of the calling thread's buffer. exit() destroys the main
/// thread's thread_locals *before* atexit handlers run, so exit-time code
/// paths (artifact writers calling snapshot()) must not re-enter the
/// thread_local — they check this pointer, which the destructor clears.
thread_local ThreadBuffer* t_buffer = nullptr;

/// Per-thread event buffer, registered with the tracer for its lifetime.
/// Lock ordering is state.mutex before buffer.mutex everywhere both are
/// held; the recording fast path takes only its own (uncontended) buffer
/// mutex, contended only while a snapshot/clear drains it.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;

  ~ThreadBuffer() {
    TracerState& s = state();
    std::lock_guard<std::mutex> state_lock(s.mutex);
    s.live.erase(std::remove(s.live.begin(), s.live.end(), this),
                 s.live.end());
    std::lock_guard<std::mutex> lock(mutex);
    std::move(events.begin(), events.end(), std::back_inserter(s.flushed));
    events.clear();
    t_buffer = nullptr;
  }
};

/// Moves a live buffer's events into the flushed list. Caller holds
/// s.mutex; the buffer's own mutex is taken here (state before buffer).
void drain_into_flushed(TracerState& s, ThreadBuffer& buffer) {
  std::lock_guard<std::mutex> lock(buffer.mutex);
  std::move(buffer.events.begin(), buffer.events.end(),
            std::back_inserter(s.flushed));
  buffer.events.clear();
}

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer buffer;
  if (buffer.tid == 0) {
    TracerState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    buffer.tid = s.next_tid++;
    s.live.push_back(&buffer);
    t_buffer = &buffer;
  }
  return buffer;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer();
  return *t;
}

void Tracer::clear() {
  TracerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.flushed.clear();
  for (ThreadBuffer* buffer : s.live) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

void Tracer::record(TraceEvent&& event) {
  ThreadBuffer& buffer = thread_buffer();
  event.tid = buffer.tid;
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(std::move(event));
    full = buffer.events.size() >= kFlushAtEvents;
  }
  if (full) flush_current_thread();
}

void Tracer::flush_current_thread() {
  // Non-creating: if this thread never recorded (or its buffer was already
  // destroyed during process teardown), there is nothing to flush.
  if (t_buffer == nullptr) return;
  TracerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_into_flushed(s, *t_buffer);
}

std::uint32_t Tracer::current_thread_tid() { return thread_buffer().tid; }

std::vector<TraceEvent> Tracer::snapshot() {
  std::vector<TraceEvent> out;
  {
    TracerState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    // Drain every live thread's buffer so spans completed on parked pool
    // workers are visible without waiting for thread exit.
    for (ThreadBuffer* buffer : s.live) drain_into_flushed(s, *buffer);
    out = s.flushed;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  return out;
}

void Tracer::write_events_member(JsonWriter& w,
                                 const std::vector<TraceEvent>& events) {
  // Rebase to the earliest span so the viewer timeline starts near zero.
  const std::uint64_t base = events.empty() ? 0 : events.front().start_ns;
  const auto common = [&](const TraceEvent& e, const char* ph, double ts) {
    w.kv("name", e.name);
    w.kv("cat", e.cat != nullptr ? e.cat : "mmr");
    w.kv("ph", ph);
    // trace_event timestamps are microseconds (fractions allowed).
    w.kv("ts", ts);
    w.kv("pid", std::int64_t{1});
    w.kv("tid", static_cast<std::int64_t>(e.tid));
  };
  const auto args = [&](const TraceEvent& e) {
    if (e.args.empty()) return;
    w.key("args").begin_object();
    for (const auto& [key, raw] : e.args) w.key(key).raw(raw);
    w.end_object();
  };
  w.key("traceEvents").begin_array();
  for (const TraceEvent& e : events) {
    const double ts = static_cast<double>(e.start_ns - base) / 1000.0;
    if (e.async_id != 0) {
      // Nestable async pair: one track per (cat, id); stages sharing the id
      // nest by their begin/end order.
      w.begin_object();
      common(e, "b", ts);
      w.kv("id", e.async_id);
      args(e);
      w.end_object();
      w.begin_object();
      common(e, "e", ts + static_cast<double>(e.dur_ns) / 1000.0);
      w.kv("id", e.async_id);
      w.end_object();
      continue;
    }
    w.begin_object();
    common(e, "X", ts);
    w.kv("dur", static_cast<double>(e.dur_ns) / 1000.0);
    args(e);
    w.end_object();
  }
  w.end_array();
}

void Tracer::write_chrome_json(std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  write_events_member(w, snapshot());
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
}

TraceSpan::TraceSpan(const char* name) {
  if (!recording(kRecTrace)) return;
  active_ = true;
  name_ = name;
  start_ns_ = monotonic_now_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceEvent e;
  e.name = name_;
  e.start_ns = start_ns_;
  e.dur_ns = monotonic_now_ns() - start_ns_;
  e.args = std::move(args_);
  Tracer::instance().record(std::move(e));
}

TraceSpan& TraceSpan::arg(const char* key, double v) {
  if (active_) args_.emplace_back(key, json_number(v));
  return *this;
}

TraceSpan& TraceSpan::arg(const char* key, std::int64_t v) {
  if (active_) args_.emplace_back(key, std::to_string(v));
  return *this;
}

TraceSpan& TraceSpan::arg(const char* key, std::uint64_t v) {
  if (active_) args_.emplace_back(key, std::to_string(v));
  return *this;
}

TraceSpan& TraceSpan::arg(const char* key, const std::string& v) {
  if (active_) args_.emplace_back(key, "\"" + json_escape(v) + "\"");
  return *this;
}

}  // namespace mmr
