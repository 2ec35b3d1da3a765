// Machine-readable run artifacts (docs/OBSERVABILITY.md):
//
//   metrics.json — a MetricsSnapshot (counters/gauges)
//                  plus a run_meta block,
//   trace.json   — Chrome trace_event JSON with the same run_meta block
//                  attached under a top-level "run_meta" key (ignored by
//                  trace viewers),
//   mmr-timeline — JSONL resource timeline from the background sampler
//                  (util/telemetry.h): a header line, one "sample" line per
//                  tick (RSS, memacct categories, phase, perf counters,
//                  metric deltas), and a trailing "summary" line with the
//                  per-phase perf totals. Schema in docs/FORMATS.md. The
//                  schema is byte-stable; the recorded values are wall-clock
//                  and inherently non-deterministic (like trace.json).
//
// run_meta records how the numbers were produced: tool name, seed/config
// fields supplied by the harness, the source revision (git describe, baked
// in at configure time), an ISO-8601 UTC timestamp and the wall time.
// Bench harnesses and mmrepl_cli reach every writer here through the
// artifact flags (--metrics-out, --trace-out, ...) of obs/artifact_outputs.h.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mmr {

/// Ordered key/value metadata for the run_meta block. Values are stored as
/// encoded JSON so heterogeneous types keep their shape.
struct RunMeta {
  std::string tool;
  std::vector<std::pair<std::string, std::string>> fields;  ///< raw JSON values

  RunMeta& add(const std::string& key, const std::string& value);
  RunMeta& add(const std::string& key, const char* value);
  RunMeta& add(const std::string& key, std::int64_t value);
  RunMeta& add(const std::string& key, std::uint64_t value);
  RunMeta& add(const std::string& key, double value);
  RunMeta& add(const std::string& key, bool value);
};

/// `git describe --always --dirty` of the built source, or "unknown".
std::string build_git_describe();

/// Current time as "YYYY-MM-DDTHH:MM:SSZ" (UTC), as stamped into run_meta.
std::string iso8601_utc_now();

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot,
                        const RunMeta& meta);

void write_trace_json(std::ostream& os, Tracer& tracer, const RunMeta& meta);

// ---------------------------------------------------------------------------
// Whole-file I/O shared by every artifact writer and reader.

/// Creates/truncates `path` and runs `body` on it. Throws CheckError when
/// the file cannot be opened or the write fails.
void write_artifact_file(const std::string& path,
                         const std::function<void(std::ostream&)>& body);

/// Reads a whole artifact file in one sized read. Throws CheckError when it
/// is missing, not a regular file, unreadable or blank.
std::string read_artifact_text(const std::string& path);

// ---------------------------------------------------------------------------
// The JSONL envelope (docs/FORMATS.md "JSONL envelope"), shared by every
// JSONL artifact: a header line, one object per event with a "type"
// discriminator, and a closing summary line. Each schema brings its payload
// writer and a per-event validator; this codec owns the rest.

/// Writes the header line: schema, version 1, the schema's own `config`
/// fields, then run_meta. run_meta carries timestamp_utc only when
/// `timestamp` is set: the wall-clock timeline has it, the byte-stable
/// schemas do not.
void write_jsonl_header(std::ostream& os, const char* schema,
                        const RunMeta& meta,
                        const std::function<void(JsonWriter&)>& config = {},
                        bool timestamp = false);

/// Writes the summary line: {"type":"summary",<count_key>:count,
/// "dropped":dropped, then the `extra` fields}.
void write_jsonl_summary(std::ostream& os, std::uint64_t count,
                         std::uint64_t dropped,
                         const char* count_key = "events",
                         const std::function<void(JsonWriter&)>& extra = {});

/// The fields every parsed JSONL artifact has.
struct JsonlDoc {
  std::string schema;
  int version = 0;
  JsonValue header;               ///< the full header line (run_meta etc.)
  std::vector<JsonValue> events;  ///< lines between header and summary
  JsonValue summary;              ///< the full summary line
  bool has_summary = false;
  std::uint64_t declared_events = 0;  ///< the summary's count
  std::uint64_t declared_dropped = 0;

  /// Events of one type, in file order.
  std::vector<const JsonValue*> of_type(const std::string& type) const;
};

/// A schema's part of the strict parse.
struct JsonlSchema {
  std::vector<std::string> names;    ///< accepted header "schema" values
  const char* count_key = "events";  ///< the summary's count field
  /// Validates the header line before any event is read; may be empty.
  std::function<void(const JsonValue& header)> check_header;
  /// Validates one event line (1-based `line_no`), in file order; may be
  /// empty.
  std::function<void(const JsonValue& event, std::size_t line_no)>
      check_event;
};

/// Strict parse of a JSONL envelope into `doc`. Every line is a JSON object;
/// the header names one of `schema.names` and version 1; every later line
/// has a string "type"; no event follows the summary; the summary is
/// present and its counts are integers in [0, 2^53], the event count
/// equal to the event lines present. Throws CheckError on any violation.
void parse_jsonl(const std::string& text, const JsonlSchema& schema,
                 JsonlDoc& doc);

/// Throws CheckError naming `schema` and `line_no` unless `v` has every
/// field in `fields`.
void require_fields(const JsonValue& v, const char* schema,
                    std::size_t line_no,
                    std::initializer_list<const char*> fields);

// ---------------------------------------------------------------------------
// mmr-timeline.

/// Writes the `mmr-timeline` JSONL artifact from a sampler snapshot.
/// `dropped` is the sampler's over-cap tick count (TimelineSampler::dropped).
void write_timeline_jsonl(std::ostream& os, const TimelineSnapshot& snapshot,
                          std::uint64_t dropped, const RunMeta& meta);

/// Parsed mmr-timeline artifact (tools + round-trip tests); `events` holds
/// the "sample" lines.
struct TimelineDoc : JsonlDoc {
  std::uint32_t interval_ms = 0;
  bool counters_available = false;
  JsonValue phase_perf;  ///< summary "phase_perf" object; null if absent
};

/// Parses an mmr-timeline JSONL document. Throws CheckError on a malformed
/// document or when the summary's sample count disagrees with the lines.
TimelineDoc parse_timeline_jsonl(const std::string& text);

}  // namespace mmr
