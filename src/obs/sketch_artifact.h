// mmr-sketch JSONL artifact: serialization of the streaming-telemetry
// snapshot and the strict parser that validates it (docs/FORMATS.md
// "mmr-sketch").
//
// Layout: one header line (schema/version/config/run_meta), then per
// (policy, mode) group in canonical order: two "sketch" lines (response,
// stretch), the "hot" ranking, the occupied "window" rows, one "slo"
// summary line; finally the {"type":"summary"} trailer. Because groups
// come from ObsLog::snapshot(), the bytes are identical at any thread
// count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "io/artifacts.h"
#include "obs/obs.h"
#include "util/json.h"

namespace mmr {

void write_sketch_jsonl(std::ostream& os, const std::vector<ObsShard>& groups,
                        const ObsConfig& config, std::uint64_t dropped,
                        const RunMeta& meta);

/// Parsed mmr-sketch document.
using SketchDoc = JsonlDoc;

/// Strict parse: checks the schema name, known event types, per-sketch
/// bucket-count consistency (zero + sum of buckets == count), window
/// good <= total, and the summary count. Throws CheckError on violation.
SketchDoc parse_sketch_jsonl(const std::string& text);
SketchDoc read_sketch_file(const std::string& path);

}  // namespace mmr
