#include "io/artifacts.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string_view>
#include <system_error>

#include "util/check.h"
#include "util/json.h"

namespace mmr {

namespace {

void write_run_meta(JsonWriter& w, const RunMeta& meta, bool timestamp) {
  w.key("run_meta").begin_object();
  w.kv("tool", meta.tool);
  w.kv("git_describe", build_git_describe());
  if (timestamp) w.kv("timestamp_utc", iso8601_utc_now());
  for (const auto& [key, raw] : meta.fields) w.key(key).raw(raw);
  w.end_object();
}

}  // namespace

RunMeta& RunMeta::add(const std::string& key, const std::string& value) {
  fields.emplace_back(key, "\"" + json_escape(value) + "\"");
  return *this;
}

RunMeta& RunMeta::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

RunMeta& RunMeta::add(const std::string& key, std::int64_t value) {
  fields.emplace_back(key, std::to_string(value));
  return *this;
}

RunMeta& RunMeta::add(const std::string& key, std::uint64_t value) {
  fields.emplace_back(key, std::to_string(value));
  return *this;
}

RunMeta& RunMeta::add(const std::string& key, double value) {
  fields.emplace_back(key, json_number(value));
  return *this;
}

RunMeta& RunMeta::add(const std::string& key, bool value) {
  fields.emplace_back(key, value ? "true" : "false");
  return *this;
}

std::string iso8601_utc_now() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

std::string build_git_describe() {
#ifdef MMR_GIT_DESCRIBE
  return MMR_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot,
                        const RunMeta& meta) {
  JsonWriter w(os);
  w.begin_object();
  write_run_meta(w, meta, true);

  w.key("counters").begin_object();
  for (const auto& [name, v] : snapshot.counters) w.kv(name, v);
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, g] : snapshot.gauges) {
    w.key(name).begin_object();
    w.kv("count", static_cast<std::uint64_t>(g.count));
    w.kv("last", g.last);
    w.kv("mean", g.mean);
    w.kv("min", g.min);
    w.kv("max", g.max);
    w.end_object();
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

void write_trace_json(std::ostream& os, Tracer& tracer, const RunMeta& meta) {
  JsonWriter w(os);
  w.begin_object();
  write_run_meta(w, meta, true);
  Tracer::write_events_member(w, tracer.snapshot());
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
}

void write_artifact_file(const std::string& path,
                         const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path);
  MMR_CHECK_MSG(os.good(), "cannot open '" + path + "' for writing");
  body(os);
  os.flush();
  MMR_CHECK_MSG(os.good(), "write to '" + path + "' failed");
}

std::string read_artifact_text(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream is(path, std::ios::binary);
  MMR_CHECK_MSG(!ec && is.good(),
                "artifact '" + path + "' is missing or unreadable");
  std::string text(static_cast<std::size_t>(size), '\0');
  is.read(text.data(), static_cast<std::streamsize>(size));
  MMR_CHECK_MSG(is.gcount() == static_cast<std::streamsize>(size),
                "artifact '" + path + "' is missing or unreadable");
  MMR_CHECK_MSG(text.find_first_not_of(" \t\r\n") != std::string::npos,
                "artifact '" + path + "' is empty");
  return text;
}

// ---------------------------------------------------------------------------
// JSONL envelope

void write_jsonl_header(std::ostream& os, const char* schema,
                        const RunMeta& meta,
                        const std::function<void(JsonWriter&)>& config,
                        bool timestamp) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", schema);
  w.kv("version", std::int64_t{1});
  if (config) config(w);
  write_run_meta(w, meta, timestamp);
  w.end_object();
  os << '\n';
}

void write_jsonl_summary(std::ostream& os, std::uint64_t count,
                         std::uint64_t dropped, const char* count_key,
                         const std::function<void(JsonWriter&)>& extra) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("type", "summary");
  w.kv(count_key, count);
  w.kv("dropped", dropped);
  if (extra) extra(w);
  w.end_object();
  os << '\n';
}

std::vector<const JsonValue*> JsonlDoc::of_type(
    const std::string& type) const {
  std::vector<const JsonValue*> out;
  for (const JsonValue& e : events) {
    if (e.at("type").str_v == type) out.push_back(&e);
  }
  return out;
}

void parse_jsonl(const std::string& text, const JsonlSchema& schema,
                 JsonlDoc& doc) {
  bool have_header = false;
  std::size_t line_no = 0;
  const std::string_view all(text);
  for (std::size_t pos = 0; pos < all.size();) {
    std::size_t end = all.find('\n', pos);
    if (end == std::string_view::npos) end = all.size();
    const std::string_view line = all.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue v = json_parse(line);
    MMR_CHECK_MSG(v.is_object(),
                  "JSONL line " << line_no << " is not a JSON object");
    if (!have_header) {
      MMR_CHECK_MSG(v.has("schema"),
                    "JSONL header line lacks a 'schema' field");
      doc.schema = v.at("schema").str_v;
      MMR_CHECK_MSG(std::find(schema.names.begin(), schema.names.end(),
                              doc.schema) != schema.names.end(),
                    "unknown schema '" << doc.schema << "', expected "
                                       << schema.names.front());
      const JsonValue& version = v.at("version");
      MMR_CHECK_MSG(version.type == JsonValue::Type::kNumber &&
                        version.num_v == 1,
                    doc.schema << " header declares an unsupported version");
      doc.version = 1;
      if (schema.check_header) schema.check_header(v);
      doc.header = std::move(v);
      have_header = true;
      continue;
    }
    MMR_CHECK_MSG(v.has("type") &&
                      v.at("type").type == JsonValue::Type::kString,
                  doc.schema << " line " << line_no
                             << " lacks a string 'type' field");
    if (v.at("type").str_v == "summary") {
      MMR_CHECK_MSG(!doc.has_summary,
                    "duplicate " << doc.schema << " summary line");
      doc.has_summary = true;
      doc.declared_events =
          json_count(v.at(schema.count_key), schema.count_key);
      doc.declared_dropped = json_count(v.at("dropped"), "dropped");
      doc.summary = std::move(v);
      continue;
    }
    MMR_CHECK_MSG(!doc.has_summary,
                  doc.schema << " event after the summary line");
    if (schema.check_event) schema.check_event(v, line_no);
    doc.events.push_back(std::move(v));
  }
  MMR_CHECK_MSG(have_header, "JSONL document has no header line");
  MMR_CHECK_MSG(doc.has_summary,
                doc.schema << " document has no summary line");
  MMR_CHECK_MSG(doc.declared_events == doc.events.size(),
                doc.schema << " summary declares " << doc.declared_events
                           << " " << schema.count_key << " but "
                           << doc.events.size() << " are present");
}

void require_fields(const JsonValue& v, const char* schema,
                    std::size_t line_no,
                    std::initializer_list<const char*> fields) {
  for (const char* field : fields) {
    MMR_CHECK_MSG(v.has(field), schema << " line " << line_no
                                       << " lacks the '" << field
                                       << "' field");
  }
}

// ---------------------------------------------------------------------------
// mmr-timeline

namespace {

void write_counter_values(JsonWriter& w, const PerfCounterValues& v) {
  w.kv("cycles", v.cycles);
  w.kv("instructions", v.instructions);
  w.kv("cache_misses", v.cache_misses);
  w.kv("branch_misses", v.branch_misses);
}

}  // namespace

void write_timeline_jsonl(std::ostream& os, const TimelineSnapshot& snapshot,
                          std::uint64_t dropped, const RunMeta& meta) {
  write_jsonl_header(
      os, "mmr-timeline", meta,
      [&](JsonWriter& w) {
        w.kv("interval_ms", static_cast<std::uint64_t>(snapshot.interval_ms));
        w.kv("counters",
             snapshot.counters_available ? "available" : "unavailable");
      },
      true);
  for (const TimelineSample& s : snapshot.samples) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("type", "sample");
    w.kv("t_ms", s.t_ms);
    w.kv("phase", s.phase);
    w.kv("rss_bytes", s.rss_bytes);
    w.kv("peak_rss_bytes", s.peak_rss_bytes);
    // Every category appears on every line — byte-stable schema.
    w.key("mem").begin_object();
    for (std::size_t c = 0; c < memacct::kCategoryCount; ++c) {
      w.kv(memacct::category_name(static_cast<memacct::Category>(c)),
           s.mem_current[c]);
    }
    w.end_object();
    w.key("mem_peak").begin_object();
    for (std::size_t c = 0; c < memacct::kCategoryCount; ++c) {
      w.kv(memacct::category_name(static_cast<memacct::Category>(c)),
           s.mem_peak[c]);
    }
    w.end_object();
    if (s.counters_valid) {
      w.key("counters").begin_object();
      write_counter_values(w, s.counters);
      w.end_object();
    }
    if (!s.metric_deltas.empty()) {
      w.key("metrics").begin_object();
      for (const auto& [name, delta] : s.metric_deltas) w.kv(name, delta);
      w.end_object();
    }
    w.end_object();
    os << '\n';
  }
  write_jsonl_summary(
      os, snapshot.samples.size(), dropped, "samples", [&](JsonWriter& w) {
        w.key("phase_perf").begin_object();
        for (const auto& [phase, totals] : snapshot.phase_perf) {
          w.key(phase).begin_object();
          w.kv("entries", totals.entries);
          write_counter_values(w, totals.values);
          w.end_object();
        }
        w.end_object();
      });
}

TimelineDoc parse_timeline_jsonl(const std::string& text) {
  TimelineDoc doc;
  JsonlSchema schema;
  schema.names = {"mmr-timeline"};
  schema.count_key = "samples";
  schema.check_header = [&](const JsonValue& h) {
    const std::uint64_t interval =
        json_count(h.at("interval_ms"), "interval_ms");
    MMR_CHECK_MSG(interval <= UINT32_MAX, "timeline interval_ms too large");
    doc.interval_ms = static_cast<std::uint32_t>(interval);
    const std::string& counters = h.at("counters").str_v;
    MMR_CHECK_MSG(counters == "available" || counters == "unavailable",
                  "timeline 'counters' must be available|unavailable, got '" +
                      counters + "'");
    doc.counters_available = counters == "available";
  };
  schema.check_event = [](const JsonValue& v, std::size_t line_no) {
    const std::string& type = v.at("type").str_v;
    MMR_CHECK_MSG(type == "sample", "mmr-timeline line "
                                        << line_no << " has unknown type '"
                                        << type << "'");
    require_fields(v, "mmr-timeline", line_no, {"t_ms", "phase", "mem"});
  };
  parse_jsonl(text, schema, doc);
  if (doc.summary.has("phase_perf")) {
    doc.phase_perf = doc.summary.at("phase_perf");
  }
  return doc;
}

}  // namespace mmr
