#include "io/benchdiff.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <ostream>

#include "util/json.h"
#include "util/table.h"

namespace mmr {

const char* to_string(SeriesVerdict v) {
  switch (v) {
    case SeriesVerdict::kPass:
      return "pass";
    case SeriesVerdict::kImprovement:
      return "improvement";
    case SeriesVerdict::kRegression:
      return "regression";
    case SeriesVerdict::kNew:
      return "new";
    case SeriesVerdict::kMissing:
      return "missing";
  }
  return "?";
}

const char* BenchDiffReport::verdict() const {
  if (regressions > 0) return "regression";
  return missing > 0 ? "missing" : "pass";
}

BenchDiffReport diff_bench_artifacts(const BenchArtifact& baseline,
                                     const BenchArtifact& candidate,
                                     const BenchDiffOptions& options) {
  const auto matches = [&](const std::string& name) {
    if (options.filters.empty()) return true;
    for (const std::string& f : options.filters) {
      if (name.find(f) != std::string::npos) return true;
    }
    return false;
  };
  std::map<std::string, const BenchMeasurement*> base, cand;
  for (const BenchMeasurement& m : baseline.measurements) {
    if (matches(m.name)) base[m.name] = &m;
  }
  for (const BenchMeasurement& m : candidate.measurements) {
    if (matches(m.name)) cand[m.name] = &m;
  }

  BenchDiffReport report;
  for (const auto& [name, bm] : base) {
    SeriesDiff d;
    d.name = name;
    d.unit = bm->unit;
    d.direction = bm->direction;
    d.base_mean = bm->stats.mean;
    d.base_stddev = bm->stats.stddev;
    const auto it = cand.find(name);
    if (it == cand.end()) {
      d.verdict = SeriesVerdict::kMissing;
      ++report.unmatched;
      ++report.missing;
      report.series.push_back(std::move(d));
      continue;
    }
    const BenchMeasurement* cm = it->second;
    d.cand_mean = cm->stats.mean;
    d.cand_stddev = cm->stats.stddev;
    d.delta = d.cand_mean - d.base_mean;
    d.rel_delta = d.base_mean == 0 ? 0.0 : d.delta / std::fabs(d.base_mean);
    double rel = options.rel_threshold;
    if (d.unit == "B" && options.mem_rel_threshold >= 0) {
      rel = options.mem_rel_threshold;
    } else if (options.tail_rel_threshold >= 0 &&
               name.find("p99") != std::string::npos) {
      rel = options.tail_rel_threshold;
    }
    // Direction-aware tightening: a delta that moves the series the wrong
    // way is held to --regress-rel when that is stricter than the bound
    // chosen above. Never loosens — a tail/mem bound tighter than the
    // regression bound keeps gating regressions at its own level.
    if (options.regress_rel_threshold >= 0 && d.direction != "none" &&
        (d.direction == "higher" ? d.delta < 0 : d.delta > 0)) {
      rel = std::min(rel, options.regress_rel_threshold);
    }
    // Prefix overrides beat the unit/tail specializations; among several
    // matches the most specific (longest) prefix decides.
    std::size_t best_len = 0;
    for (const auto& [prefix, override_rel] : options.rel_overrides) {
      if (prefix.size() >= best_len && name.rfind(prefix, 0) == 0) {
        best_len = prefix.size() + 1;  // +1 so the empty prefix can match
        rel = override_rel;
      }
    }
    d.threshold = std::max(
        {rel * std::fabs(d.base_mean),
         options.stddev_k * std::max(d.base_stddev, d.cand_stddev),
         options.min_abs});
    const bool exceeds = std::fabs(d.delta) > d.threshold;
    if (!exceeds || d.direction == "none") {
      d.verdict = SeriesVerdict::kPass;
      ++report.passes;
    } else {
      const bool worse = d.direction == "higher" ? d.delta < 0 : d.delta > 0;
      d.verdict =
          worse ? SeriesVerdict::kRegression : SeriesVerdict::kImprovement;
      ++(worse ? report.regressions : report.improvements);
    }
    report.series.push_back(std::move(d));
  }
  for (const auto& [name, cm] : cand) {
    if (base.count(name) > 0) continue;
    SeriesDiff d;
    d.name = name;
    d.unit = cm->unit;
    d.direction = cm->direction;
    d.cand_mean = cm->stats.mean;
    d.cand_stddev = cm->stats.stddev;
    d.verdict = SeriesVerdict::kNew;
    ++report.unmatched;
    report.series.push_back(std::move(d));
  }
  std::stable_sort(report.series.begin(), report.series.end(),
                   [](const SeriesDiff& a, const SeriesDiff& b) {
                     return a.name < b.name;
                   });
  return report;
}

void write_benchdiff_table(std::ostream& os, const BenchDiffReport& report) {
  TextTable t({"series", "unit", "baseline", "candidate", "delta", "rel",
               "threshold", "verdict"});
  for (const SeriesDiff& d : report.series) {
    t.begin_row().add_cell(d.name).add_cell(d.unit);
    if (d.verdict == SeriesVerdict::kNew) {
      t.add_cell("-").add_cell(d.cand_mean, 6).add_cell("-").add_cell("-");
    } else if (d.verdict == SeriesVerdict::kMissing) {
      t.add_cell(d.base_mean, 6).add_cell("-").add_cell("-").add_cell("-");
    } else {
      t.add_cell(d.base_mean, 6)
          .add_cell(d.cand_mean, 6)
          .add_cell(d.delta, 6)
          .add_percent(d.rel_delta);
    }
    t.add_cell(d.verdict == SeriesVerdict::kNew ||
                       d.verdict == SeriesVerdict::kMissing
                   ? "-"
                   : format_double(d.threshold, 6));
    t.add_cell(to_string(d.verdict));
  }
  t.print(os, "benchdiff — baseline vs candidate");
  os << '\n';
  write_benchdiff_summary(os, report);
}

void write_benchdiff_summary(std::ostream& os, const BenchDiffReport& report) {
  std::string verdict = report.verdict();
  for (char& c : verdict) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  os << "verdict: " << verdict << " (" << report.regressions
     << " regressions, " << report.missing << " missing, "
     << report.improvements << " improvements, " << report.passes
     << " within noise, " << report.unmatched << " unmatched)\n";
}

void write_benchdiff_json(std::ostream& os, const BenchDiffReport& report,
                          const BenchDiffOptions& options) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("verdict", report.verdict());
  w.key("thresholds").begin_object();
  w.kv("rel_threshold", options.rel_threshold);
  w.kv("mem_rel_threshold", options.mem_rel_threshold);
  w.kv("tail_rel_threshold", options.tail_rel_threshold);
  w.kv("regress_rel_threshold", options.regress_rel_threshold);
  w.kv("stddev_k", options.stddev_k);
  w.kv("min_abs", options.min_abs);
  w.key("filters").begin_array();
  for (const std::string& f : options.filters) w.value(f);
  w.end_array();
  w.key("rel_overrides").begin_array();
  for (const auto& [prefix, rel] : options.rel_overrides) {
    w.begin_object();
    w.kv("prefix", prefix);
    w.kv("rel", rel);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.kv("regressions", static_cast<std::uint64_t>(report.regressions));
  w.kv("improvements", static_cast<std::uint64_t>(report.improvements));
  w.kv("passes", static_cast<std::uint64_t>(report.passes));
  w.kv("unmatched", static_cast<std::uint64_t>(report.unmatched));
  w.kv("missing", static_cast<std::uint64_t>(report.missing));
  w.key("series").begin_array();
  for (const SeriesDiff& d : report.series) {
    w.begin_object();
    w.kv("name", d.name);
    w.kv("unit", d.unit);
    w.kv("direction", d.direction);
    w.kv("base_mean", d.base_mean);
    w.kv("cand_mean", d.cand_mean);
    w.kv("delta", d.delta);
    w.kv("rel_delta", d.rel_delta);
    w.kv("threshold", d.threshold);
    w.kv("verdict", to_string(d.verdict));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace mmr
