#include "io/provenance.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <ostream>
#include <tuple>
#include <type_traits>

#include "util/check.h"
#include "util/memacct.h"

namespace mmr {

namespace {

std::atomic<std::uint32_t> g_flight_sample_every{100};
std::atomic<std::uint64_t> g_next_scenario{0};

thread_local std::uint64_t t_provenance_run = kProvenanceNoRun;

/// Repository headroom rows use kInvalidId internally; the artifact writes
/// them as -1 so consumers need no knowledge of the sentinel.
std::int64_t server_field(ServerId i) {
  return i == kInvalidId ? -1 : static_cast<std::int64_t>(i);
}

}  // namespace

std::uint32_t flight_sample_every() {
  return g_flight_sample_every.load(std::memory_order_relaxed);
}
void set_flight_sample_every(std::uint32_t every) {
  g_flight_sample_every.store(every == 0 ? 1 : every,
                              std::memory_order_relaxed);
}

ProvenanceRunScope::ProvenanceRunScope(std::uint64_t run)
    : prev_(t_provenance_run) {
  t_provenance_run = run;
}

ProvenanceRunScope::~ProvenanceRunScope() { t_provenance_run = prev_; }

std::uint64_t current_provenance_run() { return t_provenance_run; }

std::uint64_t provenance_run_or_zero() {
  return t_provenance_run == kProvenanceNoRun ? 0 : t_provenance_run;
}

std::uint64_t next_provenance_scenario() {
  return g_next_scenario.fetch_add(1, std::memory_order_relaxed);
}

void set_next_provenance_scenario(std::uint64_t value) {
  g_next_scenario.store(value, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Capped event stores

namespace {

// Canonical order: producers record per-entity step sequences, so sorting
// by (run, policy, entity, step) fully determines the artifact bytes
// regardless of which worker thread appended first.
auto canonical_key(const EvictionEvent& e) {
  return std::tie(e.run, e.policy, e.server, e.step);
}
auto canonical_key(const UnmarkEvent& e) {
  return std::tie(e.run, e.policy, e.server, e.step);
}
auto canonical_key(const OffloadRoundEvent& e) {
  return std::tie(e.run, e.policy, e.round);
}
auto canonical_key(const OffloadAnswerEvent& e) {
  return std::tie(e.run, e.policy, e.round, e.server);
}
auto canonical_key(const HeadroomStamp& e) {
  return std::tie(e.run, e.policy, e.phase, e.server);
}
auto canonical_key(const ReplicaDegreeEvent& e) {
  return std::tie(e.run, e.policy, e.object);
}
auto canonical_key(const FlightRecord& r) {
  return std::tie(r.run, r.policy, r.mode, r.server, r.index);
}

template <typename T>
bool canonical_less(const T& a, const T& b) {
  return canonical_key(a) < canonical_key(b);
}

/// Position of T in Ts.
template <typename T, typename... Ts>
constexpr std::size_t index_of() {
  std::size_t i = 0;
  (void)((std::is_same_v<T, Ts> ? false : (++i, true)) && ...);
  return i;
}

/// Event lists with a deterministic cap. The lists are taken in artifact
/// order, each sorted canonically, and the store keeps the first
/// `max_events` events of that sequence whatever order the batches arrive
/// in; the rest are counted as dropped. Batches append unsorted. When the
/// store holds twice the cap it sorts and trims, and from then on drops on
/// arrival every event that sorts after the last one kept, so it never
/// holds more than twice the cap. Callers hold the owning mutex.
template <typename... Ts>
struct CappedEvents {
  static constexpr std::size_t kNoBound = sizeof...(Ts);

  std::tuple<std::vector<Ts>...> lists;
  std::size_t held = 0;
  std::size_t max_events = 1'000'000;
  std::uint64_t dropped = 0;
  std::uint64_t held_bytes = 0;  ///< memacct provenance.buffers charge
  /// After a trim that cut events: the list holding the last kept event,
  /// and that event. Later lists, and later events of this list, drop.
  std::size_t bound_list = kNoBound;
  std::tuple<std::optional<Ts>...> bound;

  template <typename T>
  void add(std::vector<T>&& batch) {
    constexpr std::size_t kList = index_of<T, Ts...>();
    const std::size_t offered = batch.size();
    if (bound_list < kList) {
      batch.clear();
    } else if (bound_list == kList) {
      const std::optional<T>& last = std::get<kList>(bound);
      std::erase_if(batch, [&](const T& e) {
        return !last || canonical_less(*last, e);
      });
    }
    dropped += offered - batch.size();
    const std::uint64_t bytes = batch.size() * sizeof(T);
    memacct::charge(memacct::Category::kProvenanceBuffers, bytes);
    held_bytes += bytes;
    std::vector<T>& into = std::get<kList>(lists);
    into.insert(into.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
    held += batch.size();
    if (held > 2 * max_events) {
      const std::uint64_t before = held_bytes;
      trim();
      memacct::release(memacct::Category::kProvenanceBuffers,
                       before - held_bytes);
    }
  }

  /// Sorts every list and keeps the first `max_events` events.
  void trim() {
    bound_list = kNoBound;
    bound = {};
    std::size_t room = max_events;
    std::apply([&](auto&... list) { (trim_list(list, room), ...); }, lists);
    held = max_events - room;
  }

  template <typename T>
  void trim_list(std::vector<T>& list, std::size_t& room) {
    std::sort(list.begin(), list.end(), canonical_less<T>);
    const std::size_t keep = std::min(room, list.size());
    const std::size_t cut = list.size() - keep;
    if (cut > 0 && bound_list == kNoBound) {
      // The first list that loses events holds the bound: its last kept
      // event or, when it keeps none, no event (the list drops entirely).
      bound_list = index_of<T, Ts...>();
      if (keep > 0) std::get<std::optional<T>>(bound) = list[keep - 1];
    }
    dropped += cut;
    held_bytes -= cut * sizeof(T);
    list.resize(keep);
    room -= keep;
  }

  /// Events a snapshot would keep / drop.
  std::size_t kept() const { return std::min(held, max_events); }
  std::uint64_t all_dropped() const { return dropped + held - kept(); }

  void clear() {
    std::apply([](auto&... list) { (list.clear(), ...); }, lists);
    memacct::release(memacct::Category::kProvenanceBuffers, held_bytes);
    held = 0;
    dropped = 0;
    held_bytes = 0;
    bound_list = kNoBound;
    bound = {};
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// AuditLog

struct AuditLog::Impl {
  mutable std::mutex mutex;
  CappedEvents<EvictionEvent, UnmarkEvent, OffloadRoundEvent,
               OffloadAnswerEvent, HeadroomStamp, ReplicaDegreeEvent>
      events;
};

AuditLog::Impl& AuditLog::impl() const {
  // One shared Impl per AuditLog would normally live as a member; the log is
  // a process-wide singleton, so a function-local leaked Impl keeps the
  // header dependency-free and teardown-safe (mirrors global_metrics()).
  static Impl* impl = new Impl();
  return *impl;
}

void AuditLog::add_evictions(std::vector<EvictionEvent>&& batch) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().events.add(std::move(batch));
}
void AuditLog::add_unmarks(std::vector<UnmarkEvent>&& batch) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().events.add(std::move(batch));
}
void AuditLog::add_offload_rounds(std::vector<OffloadRoundEvent>&& batch) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().events.add(std::move(batch));
}
void AuditLog::add_offload_answers(std::vector<OffloadAnswerEvent>&& batch) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().events.add(std::move(batch));
}
void AuditLog::add_headroom(std::vector<HeadroomStamp>&& batch) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().events.add(std::move(batch));
}
void AuditLog::add_replicas(std::vector<ReplicaDegreeEvent>&& batch) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().events.add(std::move(batch));
}

void AuditLog::clear() {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().events.clear();
}

std::size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(impl().mutex);
  return impl().events.kept();
}

std::uint64_t AuditLog::dropped() const {
  std::lock_guard<std::mutex> lock(impl().mutex);
  return impl().events.all_dropped();
}

void AuditLog::set_max_events(std::size_t max_events) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().events.max_events = max_events;
}

AuditSnapshot AuditLog::snapshot() const {
  Impl& s = impl();
  std::unique_lock<std::mutex> lock(s.mutex);
  auto events = s.events;
  lock.unlock();
  events.trim();
  AuditSnapshot out;
  std::tie(out.evictions, out.unmarks, out.offload_rounds,
           out.offload_answers, out.headroom, out.replicas) =
      std::move(events.lists);
  out.dropped = events.dropped;
  return out;
}

AuditLog& global_audit_log() {
  static AuditLog* log = new AuditLog();
  return *log;
}

// ---------------------------------------------------------------------------
// FlightLog

const char* flight_mode_name(FlightMode mode) {
  switch (mode) {
    case FlightMode::kStatic: return "static";
    case FlightMode::kLru: return "lru";
    case FlightMode::kThreshold: return "threshold";
    case FlightMode::kDes: return "des";
  }
  return "unknown";
}

struct FlightLog::Impl {
  mutable std::mutex mutex;
  CappedEvents<FlightRecord> records;
};

FlightLog::Impl& FlightLog::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

void FlightLog::add(std::vector<FlightRecord>&& batch) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().records.add(std::move(batch));
}

void FlightLog::clear() {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().records.clear();
}

std::size_t FlightLog::size() const {
  std::lock_guard<std::mutex> lock(impl().mutex);
  return impl().records.kept();
}

std::uint64_t FlightLog::dropped() const {
  std::lock_guard<std::mutex> lock(impl().mutex);
  return impl().records.all_dropped();
}

void FlightLog::set_max_records(std::size_t max_records) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  impl().records.max_events = max_records;
}

std::vector<FlightRecord> FlightLog::snapshot() const {
  Impl& s = impl();
  std::unique_lock<std::mutex> lock(s.mutex);
  auto records = s.records;
  lock.unlock();
  records.trim();
  return std::get<0>(std::move(records.lists));
}

FlightLog& global_flight_log() {
  static FlightLog* log = new FlightLog();
  return *log;
}

// ---------------------------------------------------------------------------
// Writers

namespace {

void write_event_prefix(JsonWriter& w, const char* type, std::uint64_t run,
                        const std::string& policy) {
  w.kv("type", type);
  w.kv("run", run);
  w.kv("policy", policy);
}

}  // namespace

void write_audit_jsonl(std::ostream& os, const AuditSnapshot& snapshot,
                       const RunMeta& meta) {
  write_jsonl_header(os, "mmr-audit", meta);
  for (const EvictionEvent& e : snapshot.evictions) {
    JsonWriter w(os);
    w.begin_object();
    write_event_prefix(w, "evict", e.run, e.policy);
    w.kv("server", server_field(e.server));
    w.kv("object", static_cast<std::uint64_t>(e.object));
    w.kv("step", static_cast<std::uint64_t>(e.step));
    w.kv("criterion", e.criterion);
    w.kv("bytes", e.bytes);
    w.kv("marks_cleared", static_cast<std::uint64_t>(e.marks_cleared));
    w.kv("repartitioned_pages",
         static_cast<std::uint64_t>(e.repartitioned_pages));
    w.kv("repartition_improvements",
         static_cast<std::uint64_t>(e.repartition_improvements));
    w.kv("storage_before", e.storage_before);
    w.kv("storage_after", e.storage_after);
    w.end_object();
    os << '\n';
  }
  for (const UnmarkEvent& e : snapshot.unmarks) {
    JsonWriter w(os);
    w.begin_object();
    write_event_prefix(w, "unmark", e.run, e.policy);
    w.kv("server", server_field(e.server));
    w.kv("page", static_cast<std::uint64_t>(e.page));
    w.kv("object", static_cast<std::uint64_t>(e.object));
    w.kv("compulsory", e.compulsory);
    w.kv("step", static_cast<std::uint64_t>(e.step));
    w.kv("criterion", e.criterion);
    w.kv("load_before", e.load_before);
    w.kv("load_after", e.load_after);
    w.end_object();
    os << '\n';
  }
  for (const OffloadRoundEvent& e : snapshot.offload_rounds) {
    JsonWriter w(os);
    w.begin_object();
    write_event_prefix(w, "offload_round", e.run, e.policy);
    w.kv("round", static_cast<std::uint64_t>(e.round));
    w.kv("repo_load_before", e.repo_load_before);
    w.kv("deficit", e.deficit);
    w.kv("l1", static_cast<std::uint64_t>(e.l1));
    w.kv("l2", static_cast<std::uint64_t>(e.l2));
    w.kv("l3", static_cast<std::uint64_t>(e.l3));
    w.end_object();
    os << '\n';
  }
  for (const OffloadAnswerEvent& e : snapshot.offload_answers) {
    JsonWriter w(os);
    w.begin_object();
    write_event_prefix(w, "offload_answer", e.run, e.policy);
    w.kv("round", static_cast<std::uint64_t>(e.round));
    w.kv("server", server_field(e.server));
    w.kv("requested", e.requested);
    w.kv("achieved", e.achieved);
    w.kv("moved_to_l3", e.moved_to_l3);
    w.end_object();
    os << '\n';
  }
  for (const HeadroomStamp& e : snapshot.headroom) {
    JsonWriter w(os);
    w.begin_object();
    write_event_prefix(w, "headroom", e.run, e.policy);
    w.kv("phase", kAuditPhaseNames[e.phase]);
    w.kv("server", server_field(e.server));
    w.kv("proc_load", e.proc_load);
    w.kv("proc_capacity", e.proc_capacity);  // null when unlimited
    w.key("proc_headroom");
    if (e.proc_capacity == kUnlimited) {
      w.null();
    } else {
      w.value(e.proc_capacity - e.proc_load);
    }
    if (e.server != kInvalidId) {
      w.kv("storage_used", e.storage_used);
      w.kv("storage_capacity", e.storage_capacity);
      w.kv("storage_headroom", static_cast<std::int64_t>(e.storage_capacity) -
                                   static_cast<std::int64_t>(e.storage_used));
    }
    w.end_object();
    os << '\n';
  }
  for (const ReplicaDegreeEvent& e : snapshot.replicas) {
    JsonWriter w(os);
    w.begin_object();
    write_event_prefix(w, "replica", e.run, e.policy);
    w.kv("object", static_cast<std::uint64_t>(e.object));
    w.kv("degree", static_cast<std::uint64_t>(e.degree));
    w.kv("bytes", e.bytes);
    w.end_object();
    os << '\n';
  }
  write_jsonl_summary(os, snapshot.total_events(), snapshot.dropped);
}

void write_flight_jsonl(std::ostream& os,
                        const std::vector<FlightRecord>& records,
                        std::uint64_t dropped, const RunMeta& meta) {
  write_jsonl_header(os, "mmr-flight", meta, [](JsonWriter& w) {
    w.kv("sample_every", static_cast<std::uint64_t>(flight_sample_every()));
  });
  for (const FlightRecord& r : records) {
    JsonWriter w(os);
    w.begin_object();
    write_event_prefix(w, "request", r.run, r.policy);
    w.kv("mode", flight_mode_name(r.mode));
    w.kv("server", server_field(r.server));
    w.kv("page", static_cast<std::uint64_t>(r.page));
    w.kv("index", static_cast<std::uint64_t>(r.index));
    w.kv("t_local", r.t_local);
    w.kv("t_remote", r.t_remote);
    w.kv("response", r.response);
    w.kv("bound", r.remote_bound ? "remote" : "local");
    w.kv("local_stretch", r.local_stretch);
    w.kv("repo_stretch", r.repo_stretch);
    w.kv("optional_requested",
         static_cast<std::uint64_t>(r.optional_requested));
    w.kv("optional_time", r.optional_time);
    w.kv("cache_hits", static_cast<std::uint64_t>(r.cache_hits));
    w.kv("cache_misses", static_cast<std::uint64_t>(r.cache_misses));
    w.kv("throttled", static_cast<std::uint64_t>(r.throttled));
    if (r.mode == FlightMode::kDes) {
      w.kv("local_wait", r.local_wait);
      w.kv("local_service", r.local_service);
      w.kv("repo_wait", r.repo_wait);
      w.kv("repo_service", r.repo_service);
      w.kv("queue_depth", static_cast<std::uint64_t>(r.queue_depth));
    }
    w.end_object();
    os << '\n';
  }
  write_jsonl_summary(os, records.size(), dropped);
}

// ---------------------------------------------------------------------------
// Parser

ProvenanceDoc parse_provenance_jsonl(const std::string& text) {
  ProvenanceDoc doc;
  JsonlSchema schema;
  schema.names = {"mmr-audit", "mmr-flight"};
  parse_jsonl(text, schema, doc);
  return doc;
}

}  // namespace mmr
