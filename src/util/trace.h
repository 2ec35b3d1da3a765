// Lightweight phase tracer emitting Chrome trace_event JSON (complete
// events, "ph":"X") so a PARTITION → offload → local-search → restore
// pipeline run can be opened in chrome://tracing or Perfetto
// (docs/OBSERVABILITY.md).
//
// Disabled by default (the kRecTrace bit of util/recording.h): a TraceSpan
// costs one relaxed load when tracing is off. When on, span begin/end
// timestamps and optional key/value args are buffered per thread (the hot
// path takes only the buffer's own uncontended mutex) and handed to the
// global tracer when a buffer fills or the thread exits. Spans nest
// naturally through RAII. Solver and simulator phases open theirs through
// PhaseScope (util/telemetry.h).
//
//   {
//     TraceSpan span("offload.round");
//     span.arg("deficit", deficit);
//     ...
//   }  // span ends, event recorded
//
// Every live thread's buffer is registered with the tracer, so snapshot()
// sees all completed spans immediately — including spans recorded on
// ThreadPool workers that are still parked in the pool. (Spans still open
// on another thread are, by definition, not complete and not included.)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace mmr {

class JsonWriter;

/// One completed span. Timestamps are nanoseconds on the shared monotonic
/// clock (util/metrics monotonic_now_ns); arg values are pre-encoded JSON.
///
/// A span with `async_id != 0` is an *async* span: the writer emits it as a
/// nestable async begin/end pair ("ph":"b"/"e") instead of a complete event,
/// grouped into one viewer track per (cat, id). The DES uses these for
/// causal request traces — every lifecycle stage of one sampled request
/// shares the request's id, so its journey renders as a nested timeline
/// alongside the ordinary solver spans (docs/OBSERVABILITY.md).
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint64_t async_id = 0;     ///< 0 = ordinary complete event
  const char* cat = nullptr;      ///< static category; null = "mmr"
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  /// Process-wide tracer (intentionally leaked, like global_metrics()).
  static Tracer& instance();

  /// Discards all recorded events, including the calling thread's buffer.
  void clear();

  /// Every completed span from every thread — flushed events plus the
  /// contents of all live threads' buffers (drained under their locks) —
  /// sorted by start time.
  std::vector<TraceEvent> snapshot();

  /// Chrome trace_event JSON: {"traceEvents":[...]}. Loads in
  /// chrome://tracing and Perfetto.
  void write_chrome_json(std::ostream& os);

  /// Writes the "traceEvents" member into an already-open JSON object, with
  /// timestamps rebased so the earliest span starts at 0. Lets callers (e.g.
  /// io/artifacts) attach extra top-level keys such as run_meta.
  static void write_events_member(JsonWriter& w,
                                  const std::vector<TraceEvent>& events);

  // Internal API used by TraceSpan and thread teardown.
  void record(TraceEvent&& event);
  void flush_current_thread();
  std::uint32_t current_thread_tid();

 private:
  Tracer() = default;
};

/// RAII span; records a TraceEvent on destruction when kRecTrace was on at
/// construction. Cheap no-op otherwise.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }

  TraceSpan& arg(const char* key, double v);
  TraceSpan& arg(const char* key, std::int64_t v);
  TraceSpan& arg(const char* key, std::uint64_t v);
  TraceSpan& arg(const char* key, const std::string& v);

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace mmr
