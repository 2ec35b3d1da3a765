// Decision provenance & per-request flight recorder (docs/OBSERVABILITY.md):
//
//   audit  — why the placement looks the way it does where the constraints
//            bind: every storage/processing-restore eviction, every
//            repository off-loading negotiation round, per-server Eq. 8/9/10
//            headroom stamps after each solver phase, and the final
//            per-object replication degree. PARTITION (Sec. 4.2) is not
//            narrated step by step: each page's bits depend only on the
//            model, so its result is the placement itself and the
//            "partition"-phase headroom stamps.
//   flight — which requests pay for it: sampled per-request records (page,
//            host, local vs repository pipeline time, winning pipeline,
//            overload stretch, optional-object outcomes, cache hit/miss)
//            from the simulator, using a deterministic 1-in-N sampler on the
//            per-server request index that draws from no RNG stream.
//
// Both recorders follow the metrics/trace contract: off by default (the
// kRecAudit and kRecFlight bits of util/recording.h), and enabling them
// changes neither solver placements nor simulated response times
// bit-for-bit (guarded by test_runner / test_provenance). Events carry
// no wall-clock timestamps and no atomic sequence numbers; every event is
// keyed by (run tag, policy label, entity, step) and the logs sort into that
// canonical order before writing, so the JSONL artifacts are byte-identical
// at any thread count.
//
// Artifacts are JSONL: a header line ({"schema":"mmr-audit"|"mmr-flight",
// "version":1,...,"run_meta":{...}}), one object per event with a "type"
// discriminator, and a trailing {"type":"summary",...} line with event and
// dropped counts (docs/FORMATS.md). `tools/mmr_report` joins them with
// metrics.json / trace.json into a run report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "io/artifacts.h"
#include "model/entities.h"
#include "util/json.h"

namespace mmr {

// ---------------------------------------------------------------------------
// Flight sampling.

/// The flight recorder keeps request `index` when index % N == 0; N >= 1.
std::uint32_t flight_sample_every();
void set_flight_sample_every(std::uint32_t every);

// ---------------------------------------------------------------------------
// Run tags. Events are stamped with a thread-local 64-bit run tag so records
// from concurrently-executing seeds stay attributable and sortable. The
// runner installs composed tags (scenario sequence number in the high bits,
// run index in the low bits); a bare run_single installs the seed itself.

inline constexpr std::uint64_t kProvenanceNoRun = ~std::uint64_t{0};

/// RAII: sets the calling thread's run tag, restoring the previous one.
class ProvenanceRunScope {
 public:
  explicit ProvenanceRunScope(std::uint64_t run);
  ~ProvenanceRunScope();
  ProvenanceRunScope(const ProvenanceRunScope&) = delete;
  ProvenanceRunScope& operator=(const ProvenanceRunScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// The calling thread's run tag, or kProvenanceNoRun when none is active.
std::uint64_t current_provenance_run();

/// Tag recorded into events: the active run tag, or 0 when none is active.
std::uint64_t provenance_run_or_zero();

/// Monotonic scenario sequence used by run_scenario to compose run tags
/// ((scenario << 32) | run index). Scenarios start serially, so the sequence
/// is deterministic; tests may reset it to reproduce identical artifacts.
std::uint64_t next_provenance_scenario();
void set_next_provenance_scenario(std::uint64_t value);

// ---------------------------------------------------------------------------
// Audit events. `run` is the run tag, `policy` the metric label active when
// the event was recorded ("ours", "unconstrained", ... — util/metrics).

/// One storage-restoration eviction (Eq. 10): object `object` deallocated
/// from `server`. `criterion` is the heap key (delta-D, amortized by size
/// when enabled); `marks_cleared` local marks were removed and the affected
/// pages repartitioned.
struct EvictionEvent {
  std::uint64_t run = 0;
  std::string policy;
  ServerId server = kInvalidId;
  ObjectId object = kInvalidId;
  std::uint32_t step = 0;  ///< eviction sequence within this server's pass
  double criterion = 0;
  std::uint64_t bytes = 0;
  std::uint32_t marks_cleared = 0;
  std::uint32_t repartitioned_pages = 0;
  std::uint32_t repartition_improvements = 0;
  std::uint64_t storage_before = 0;
  std::uint64_t storage_after = 0;
};

/// One processing-restoration unmark (Eq. 8): slot (page, object) switched
/// to repository download on `server`. `criterion` is the heap key (delta-D,
/// amortized by slot workload when enabled).
struct UnmarkEvent {
  std::uint64_t run = 0;
  std::string policy;
  ServerId server = kInvalidId;
  PageId page = kInvalidId;
  ObjectId object = kInvalidId;
  bool compulsory = false;
  std::uint32_t step = 0;  ///< unmark sequence within this server's pass
  double criterion = 0;
  double load_before = 0;  ///< server HTTP load before the unmark [req/s]
  double load_after = 0;
};

/// One repository off-loading negotiation round (Eq. 9 / Sec. 4.4).
struct OffloadRoundEvent {
  std::uint64_t run = 0;
  std::string policy;
  std::uint32_t round = 0;
  double repo_load_before = 0;
  double deficit = 0;
  std::uint32_t l1 = 0;  ///< servers that can take load without dropping
  std::uint32_t l2 = 0;  ///< servers that must drop optional objects
  std::uint32_t l3 = 0;  ///< saturated servers
};

/// One server's answer within an off-loading round.
struct OffloadAnswerEvent {
  std::uint64_t run = 0;
  std::string policy;
  std::uint32_t round = 0;
  ServerId server = kInvalidId;
  double requested = 0;  ///< NewReq asked of this server [req/s]
  double achieved = 0;   ///< load actually absorbed [req/s]
  bool moved_to_l3 = false;
};

/// Audit phases in pipeline order; HeadroomStamp::phase indexes this.
inline constexpr const char* kAuditPhaseNames[] = {
    "partition", "storage_restore", "processing_restore", "offload"};
inline constexpr std::uint8_t kAuditPhaseCount = 4;

/// Per-server constraint headroom after one solver phase. Server rows carry
/// Eq. 8 (processing) and Eq. 10 (storage); the repository row (server ==
/// kInvalidId, written as -1) carries Eq. 9. Unlimited capacities serialize
/// as null.
struct HeadroomStamp {
  std::uint64_t run = 0;
  std::string policy;
  std::uint8_t phase = 0;  ///< index into kAuditPhaseNames
  ServerId server = kInvalidId;
  double proc_load = 0;
  double proc_capacity = 0;  ///< kUnlimited when uncapped
  std::uint64_t storage_used = 0;      ///< 0 on the repository row
  std::uint64_t storage_capacity = 0;  ///< 0 on the repository row
};

/// Final replication degree of one object: on how many servers a local copy
/// ended up (objects with degree 0 are not recorded).
struct ReplicaDegreeEvent {
  std::uint64_t run = 0;
  std::string policy;
  ObjectId object = kInvalidId;
  std::uint32_t degree = 0;
  std::uint64_t bytes = 0;
};

/// Sorted copies of everything the audit log holds, in canonical order.
struct AuditSnapshot {
  std::vector<EvictionEvent> evictions;
  std::vector<UnmarkEvent> unmarks;
  std::vector<OffloadRoundEvent> offload_rounds;
  std::vector<OffloadAnswerEvent> offload_answers;
  std::vector<HeadroomStamp> headroom;
  std::vector<ReplicaDegreeEvent> replicas;
  std::uint64_t dropped = 0;

  std::size_t total_events() const {
    return evictions.size() + unmarks.size() + offload_rounds.size() +
           offload_answers.size() + headroom.size() + replicas.size();
  }
};

/// Thread-safe audit event sink. Producers append whole batches (one lock
/// per batch); snapshot() sorts into canonical (run, policy, entity, step)
/// order so the artifact bytes do not depend on thread scheduling. A size
/// cap bounds memory on huge runs: the log keeps the first max_events
/// events of the artifact in that canonical order, whatever order they
/// arrived in, and counts the rest in dropped(), never silently lost. It
/// holds at most twice the cap while recording. AuditLog is a handle onto
/// the single process-wide store (like the trace Tracer) — every instance
/// shares it.
class AuditLog {
 public:
  void add_evictions(std::vector<EvictionEvent>&& batch);
  void add_unmarks(std::vector<UnmarkEvent>&& batch);
  void add_offload_rounds(std::vector<OffloadRoundEvent>&& batch);
  void add_offload_answers(std::vector<OffloadAnswerEvent>&& batch);
  void add_headroom(std::vector<HeadroomStamp>&& batch);
  void add_replicas(std::vector<ReplicaDegreeEvent>&& batch);

  void clear();
  std::size_t size() const;
  std::uint64_t dropped() const;

  /// Event cap (default 1'000'000); it also applies to events already held.
  void set_max_events(std::size_t max_events);

  AuditSnapshot snapshot() const;

 private:
  struct Impl;
  Impl& impl() const;
};

/// Process-wide audit log (intentionally leaked, like global_metrics()).
AuditLog& global_audit_log();

// ---------------------------------------------------------------------------
// Flight records.

/// Simulation mode of a flight record.
enum class FlightMode : std::uint8_t {
  kStatic = 0,
  kLru = 1,
  kThreshold = 2,
  kDes = 3,  ///< discrete-event queueing mode (sim/des.h)
};
const char* flight_mode_name(FlightMode mode);

/// One sampled simulated page request. `index` is the request's position in
/// the per-server arrival stream (the sampler keeps index % N == 0). The
/// response is max(t_local, t_remote) (Eq. 5); remote_bound says which
/// pipeline set it. Stretches are the load-dependent overload factors
/// applied to the transfer terms (1.0 when uncontended; always 1.0 in
/// lru/threshold modes). Optional outcomes are attributed in static mode
/// only — the cache baselines defer optional fetches, so those records
/// carry the scheduled count with optional_time 0. hits/misses/throttled
/// count this request's compulsory objects in the cache modes.
struct FlightRecord {
  std::uint64_t run = 0;
  std::string policy;
  FlightMode mode = FlightMode::kStatic;
  ServerId server = kInvalidId;
  PageId page = kInvalidId;
  std::uint32_t index = 0;
  double t_local = 0;
  double t_remote = 0;
  double response = 0;
  bool remote_bound = false;
  double local_stretch = 1.0;
  double repo_stretch = 1.0;
  std::uint32_t optional_requested = 0;
  double optional_time = 0;
  std::uint32_t cache_hits = 0;
  std::uint32_t cache_misses = 0;
  std::uint32_t throttled = 0;
  // Per-stage wait/service split, filled by the DES (zero elsewhere):
  // t_local = local_wait + local_service and t_remote = repo_wait +
  // repo_service. queue_depth is the local admission queue length this
  // request observed on arrival.
  double local_wait = 0;
  double local_service = 0;
  double repo_wait = 0;
  double repo_service = 0;
  std::uint32_t queue_depth = 0;
};

/// Thread-safe flight-record sink; same batching/sorting/cap contract as
/// AuditLog.
class FlightLog {
 public:
  void add(std::vector<FlightRecord>&& batch);
  void clear();
  std::size_t size() const;
  std::uint64_t dropped() const;
  void set_max_records(std::size_t max_records);

  /// Sorted copy in canonical (run, policy, mode, server, index) order.
  std::vector<FlightRecord> snapshot() const;

 private:
  struct Impl;
  Impl& impl() const;
};

/// Process-wide flight log (intentionally leaked).
FlightLog& global_flight_log();

// ---------------------------------------------------------------------------
// Artifact writers & parser (schemas in docs/FORMATS.md).

void write_audit_jsonl(std::ostream& os, const AuditSnapshot& snapshot,
                       const RunMeta& meta);

void write_flight_jsonl(std::ostream& os,
                        const std::vector<FlightRecord>& records,
                        std::uint64_t dropped, const RunMeta& meta);

/// Parsed JSONL provenance artifact (either schema).
using ProvenanceDoc = JsonlDoc;

/// Parses a JSONL provenance document; throws CheckError on malformed input
/// or a summary whose event count disagrees with the lines present.
ProvenanceDoc parse_provenance_jsonl(const std::string& text);

}  // namespace mmr
