#include "obs/sketch_artifact.h"

#include <ostream>

#include "util/check.h"

namespace mmr {

namespace {

void write_group_prefix(JsonWriter& w, const char* type,
                        const ObsShard& group) {
  w.kv("type", type);
  w.kv("policy", group.policy);
  w.kv("mode", flight_mode_name(group.mode));
}

std::uint64_t write_sketch_line(std::ostream& os, const ObsShard& group,
                                const char* metric,
                                const QuantileSketch& sketch) {
  JsonWriter w(os);
  w.begin_object();
  write_group_prefix(w, "sketch", group);
  w.kv("metric", metric);
  w.kv("count", sketch.count());
  w.kv("zero", sketch.zero_count());
  w.kv("sum", sketch.sum());
  w.kv("min", sketch.min());
  w.kv("max", sketch.max());
  w.kv("collapses", sketch.collapses());
  if (!sketch.empty()) {
    w.kv("p50", sketch.quantile(0.50));
    w.kv("p90", sketch.quantile(0.90));
    w.kv("p99", sketch.quantile(0.99));
    w.kv("p999", sketch.quantile(0.999));
  }
  w.key("buckets").begin_array();
  for (const auto& [index, count] : sketch.buckets()) {
    w.begin_array();
    w.value(std::int64_t{index});
    w.value(count);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return 1;
}

std::uint64_t write_hot_lines(std::ostream& os, const ObsShard& group) {
  std::uint64_t lines = 0;
  std::uint64_t rank = 0;
  for (const SpaceSavingTracker::Entry& e : group.hot.top()) {
    JsonWriter w(os);
    w.begin_object();
    write_group_prefix(w, "hot", group);
    w.kv("rank", ++rank);
    w.kv("page", std::uint64_t{hot_key_page(e.key)});
    w.kv("server", std::uint64_t{hot_key_server(e.key)});
    w.kv("count", e.count);
    w.kv("error", e.error);
    w.kv("miss_cost_s", e.weight);
    w.end_object();
    os << '\n';
    ++lines;
  }
  return lines;
}

std::uint64_t write_window_lines(std::ostream& os, const ObsShard& group,
                                 const SloReport& report) {
  for (const SloWindowRow& row : report.windows) {
    JsonWriter w(os);
    w.begin_object();
    write_group_prefix(w, "window", group);
    w.kv("index", row.index);
    w.kv("t_start_s", row.t_start_s);
    w.kv("requests", row.total);
    w.kv("good", row.good);
    w.kv("attainment", row.attainment);
    w.kv("burn", row.burn);
    w.kv("p99_s", row.p99_s);
    w.end_object();
    os << '\n';
  }
  return report.windows.size();
}

std::uint64_t write_slo_line(std::ostream& os, const ObsShard& group,
                             const SloReport& report) {
  JsonWriter w(os);
  w.begin_object();
  write_group_prefix(w, "slo", group);
  w.kv("windows", static_cast<std::uint64_t>(report.windows.size()));
  w.kv("requests", report.total);
  w.kv("good", report.good);
  w.kv("attainment", report.attainment);
  w.kv("worst_burn_1", report.worst_burn_1);
  w.kv("worst_burn_6", report.worst_burn_6);
  w.end_object();
  os << '\n';
  return 1;
}

}  // namespace

void write_sketch_jsonl(std::ostream& os, const std::vector<ObsShard>& groups,
                        const ObsConfig& config, std::uint64_t dropped,
                        const RunMeta& meta) {
  write_jsonl_header(os, "mmr-sketch", meta, [&](JsonWriter& w) {
    w.kv("alpha", kObsAlpha);
    w.kv("gamma", (1.0 + kObsAlpha) / (1.0 - kObsAlpha));
    w.kv("max_buckets", std::uint64_t{kObsMaxBuckets});
    w.kv("hot_capacity", std::uint64_t{kObsHotCapacity});
    w.kv("window_s", config.window_s);
    w.key("slo").begin_object();
    w.kv("response_s", config.slo.response_s);
    w.kv("stretch_x", config.slo.stretch_x);
    w.kv("target", config.slo.target);
    w.end_object();
  });
  std::uint64_t events = 0;
  for (const ObsShard& group : groups) {
    events += write_sketch_line(os, group, "response", group.response);
    events += write_sketch_line(os, group, "stretch", group.stretch);
    events += write_hot_lines(os, group);
    const SloReport report = group.windows.evaluate();
    events += write_window_lines(os, group, report);
    events += write_slo_line(os, group, report);
  }
  write_jsonl_summary(os, events, dropped);
}

namespace {

void check_sketch_event(const JsonValue& v, std::size_t line_no) {
  require_fields(v, "mmr-sketch", line_no,
                 {"policy", "mode", "metric", "count", "zero", "sum", "min",
                  "max", "buckets"});
  const std::uint64_t count = json_count(v.at("count"), "count");
  std::uint64_t mass = json_count(v.at("zero"), "zero");
  for (const JsonValue& pair : v.at("buckets").arr) {
    MMR_CHECK_MSG(pair.arr.size() == 2, "mmr-sketch line "
                                            << line_no
                                            << " has a malformed bucket pair");
    mass += json_count(pair.arr[1], "bucket count");
  }
  MMR_CHECK_MSG(mass == count, "mmr-sketch line "
                                   << line_no << " bucket counts sum to "
                                   << mass << " but count is " << count);
}

void check_window_event(const JsonValue& v, std::size_t line_no) {
  require_fields(v, "mmr-sketch", line_no,
                 {"index", "requests", "good", "attainment"});
  MMR_CHECK_MSG(v.at("good").num_v <= v.at("requests").num_v,
                "mmr-sketch line "
                    << line_no
                    << " reports more good requests than requests");
}

}  // namespace

SketchDoc parse_sketch_jsonl(const std::string& text) {
  SketchDoc doc;
  JsonlSchema schema;
  schema.names = {"mmr-sketch"};
  schema.check_header = [](const JsonValue& h) {
    MMR_CHECK_MSG(h.has("alpha") && h.has("window_s") && h.has("slo"),
                  "sketch header lacks the telemetry config");
  };
  schema.check_event = [](const JsonValue& v, std::size_t line_no) {
    const std::string& type = v.at("type").str_v;
    if (type == "sketch") {
      check_sketch_event(v, line_no);
    } else if (type == "window") {
      check_window_event(v, line_no);
    } else {
      MMR_CHECK_MSG(type == "hot" || type == "slo",
                    "unknown sketch event type '" << type << "' on line "
                                                  << line_no);
    }
  };
  parse_jsonl(text, schema, doc);
  return doc;
}

SketchDoc read_sketch_file(const std::string& path) {
  return parse_sketch_jsonl(read_artifact_text(path));
}

}  // namespace mmr
