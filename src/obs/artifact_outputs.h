// The run-artifact flags shared by every bench harness and mmrepl_cli
// (docs/OBSERVABILITY.md "Artifact flags"):
//
//   --metrics-out=F --trace-out=F --audit-out=F --flight-out=F
//   --timeline-out=F --sketch-out=F --timeseries-out=F --invariants-out=F
//                         output paths; each one turns its recorder on
//   --flight-sample=N     flight recorder keeps every Nth page arrival
//   --timeline-interval-ms=N  resource sampler tick interval
//   --window=S --slo=R,S,T    streaming-telemetry SLO window and spec
//   --ts-window=S --ts-max-windows=N  queue-dynamics window config
//   --progress            single-line stderr progress/ETA
//   --mem-budget=N        fail fast past N tracked bytes
//
// bind() reads the flags and stores the recording mask they ask for
// (util/recording.h), before the measured work; stamp() records their
// config in a RunMeta; write() writes every requested output once the work
// is done.
#pragma once

#include <cstdint>
#include <string>

#include "io/artifacts.h"
#include "util/flags.h"

namespace mmr {

class ArtifactOutputs {
 public:
  /// Registers the flags' --help lines.
  static void describe(Flags& flags);

  /// Reads and range-checks the flags (CheckError on a negative count or a
  /// --flight-sample / --timeline-interval-ms above 2^32-1), then sets the
  /// telemetry configs and stores the recording mask: metrics plus the
  /// recorders the outputs and --progress need. Configs must be in place
  /// before the first simulate call creates a shard.
  void bind(const Flags& flags);

  /// True when any output path is set.
  bool any() const;

  /// Appends the config fields of the enabled recorders to `meta`.
  void stamp(RunMeta& meta) const;

  /// Writes every requested output, stopping the timeline sampler before
  /// its snapshot is taken.
  void write(const RunMeta& meta) const;

 private:
  std::string metrics_;
  std::string trace_;
  std::string audit_;
  std::string flight_;
  std::string timeline_;
  std::string sketch_;
  std::string timeseries_;
  std::string invariants_;
  std::uint64_t mem_budget_ = 0;
};

}  // namespace mmr
