// Shared fixtures: hand-built tiny systems with numbers chosen so every
// cost-model quantity is easy to verify by hand, a shrunken Table 1
// parameter set for fast randomized tests, and an RAII recording scope.
#pragma once

#include <bit>
#include <cstdint>

#include "io/provenance.h"
#include "model/system.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "util/recording.h"
#include "util/trace.h"
#include "workload/params.h"

namespace mmr::testing {

/// Saves the recording mask and turns `bits` on; on exit restores the mask.
/// On entry and on exit it clears the audit, flight, obs and timeseries logs
/// and the tracer, so a failing ASSERT inside cannot leave a recorder on,
/// or its records behind, for the later tests of the binary.
class RecordingScope {
 public:
  explicit RecordingScope(std::uint32_t bits = 0) : saved_(recording_mask()) {
    clear_logs();
    set_recording(saved_ | bits);
  }
  ~RecordingScope() {
    set_recording(saved_);
    clear_logs();
  }
  RecordingScope(const RecordingScope&) = delete;
  RecordingScope& operator=(const RecordingScope&) = delete;

 private:
  static void clear_logs() {
    global_audit_log().clear();
    global_flight_log().clear();
    global_obs_log().clear();
    global_timeseries_log().clear();
    Tracer::instance().clear();
  }

  std::uint32_t saved_;
};

inline constexpr std::uint64_t kKB = 1024;
inline constexpr std::uint64_t kMB = 1024 * kKB;

/// One server, one page, two compulsory + one optional object.
///
/// Server: ovhd_local = 1, ovhd_repo = 2, local_rate = 100 B/s,
///         repo_rate = 10 B/s, storage = 10 kB, proc = 100 req/s.
/// Page: html = 200 B, f = 2 req/s, optional_scale = 1.
/// Objects: M0 = 300 B, M1 = 500 B (compulsory), M2 = 400 B (optional,
/// probability 0.25).
///
/// Hand numbers (all-remote): Eq.3 = 1 + 200/100 = 3; Eq.4 = 2 + 800/10 = 82;
/// Eq.5 = 82; Eq.6 = 0.25 * (2 + 400/10) = 10.5.
inline SystemModel tiny_system(double proc_capacity = 100.0,
                               std::uint64_t storage = 10 * kKB,
                               double repo_capacity = kUnlimited) {
  SystemModel sys;
  Server s;
  s.proc_capacity = proc_capacity;
  s.storage_capacity = storage;
  s.ovhd_local = 1.0;
  s.ovhd_repo = 2.0;
  s.local_rate = 100.0;
  s.repo_rate = 10.0;
  sys.add_server(s);
  sys.set_repository({repo_capacity});

  const ObjectId m0 = sys.add_object({300});
  const ObjectId m1 = sys.add_object({500});
  const ObjectId m2 = sys.add_object({400});

  Page p;
  p.host = 0;
  p.html_bytes = 200;
  p.frequency = 2.0;
  p.compulsory = {m0, m1};
  p.optional = {{m2, 0.25}};
  sys.add_page(std::move(p));
  sys.finalize();
  return sys;
}

/// Two servers, three pages, five objects with cross-page sharing — used by
/// restoration/offload tests. Numbers stay small and round.
inline SystemModel two_server_system(double proc_capacity = 1000.0,
                                     std::uint64_t storage = 100 * kKB,
                                     double repo_capacity = kUnlimited) {
  SystemModel sys;
  Server a;
  a.proc_capacity = proc_capacity;
  a.storage_capacity = storage;
  a.ovhd_local = 1.0;
  a.ovhd_repo = 2.0;
  a.local_rate = 1000.0;
  a.repo_rate = 100.0;
  sys.add_server(a);

  Server b = a;
  b.ovhd_local = 1.5;
  b.ovhd_repo = 2.5;
  b.local_rate = 500.0;
  b.repo_rate = 50.0;
  sys.add_server(b);

  sys.set_repository({repo_capacity});

  const ObjectId big = sys.add_object({40 * kKB});
  const ObjectId mid = sys.add_object({10 * kKB});
  const ObjectId small = sys.add_object({2 * kKB});
  const ObjectId shared = sys.add_object({8 * kKB});
  const ObjectId extra = sys.add_object({5 * kKB});

  Page p0;  // hot page on server 0
  p0.host = 0;
  p0.html_bytes = 1 * kKB;
  p0.frequency = 5.0;
  p0.compulsory = {big, shared};
  p0.optional = {{extra, 0.1}};
  sys.add_page(std::move(p0));

  Page p1;  // cold page on server 0 sharing `shared`
  p1.host = 0;
  p1.html_bytes = 2 * kKB;
  p1.frequency = 1.0;
  p1.compulsory = {mid, shared, small};
  sys.add_page(std::move(p1));

  Page p2;  // page on server 1
  p2.host = 1;
  p2.html_bytes = 1 * kKB;
  p2.frequency = 2.0;
  p2.compulsory = {big, small};
  p2.optional = {{extra, 0.2}};
  sys.add_page(std::move(p2));

  sys.finalize();
  return sys;
}

/// Shrunken Table 1 parameters: same structure, ~30x smaller, for fast
/// randomized and integration tests.
inline WorkloadParams small_params() {
  WorkloadParams p;
  p.num_servers = 3;
  p.min_pages_per_server = 20;
  p.max_pages_per_server = 40;
  p.num_objects = 600;
  p.min_objects_per_server = 150;
  p.max_objects_per_server = 250;
  p.min_compulsory_per_page = 3;
  p.max_compulsory_per_page = 12;
  p.min_optional_per_page = 4;
  p.max_optional_per_page = 10;
  p.server_proc_capacity = kUnlimited;
  p.page_requests_per_sec_per_server = 5.0;
  return p;
}

/// FNV-1a over a stream of 64-bit words (little-endian bytes); golden tests
/// pin whole derived arrays with it.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

/// Hash of a finalized instance: the raw servers, objects and pages plus
/// every finalize()-derived accessor (pages per server, ranks, the reference
/// CSR, per-slot caches, visit orders, byte and rate totals). Two instances
/// hash equal only if every solver-visible index is identical.
inline std::uint64_t model_hash(const SystemModel& sys) {
  Fnv1a f;
  f.add(sys.repository().proc_capacity);
  for (const MediaObject& o : sys.objects()) f.add(o.bytes);
  for (const Server& s : sys.servers()) {
    f.add(s.proc_capacity);
    f.add(s.storage_capacity);
    f.add(s.ovhd_local);
    f.add(s.ovhd_repo);
    f.add(s.local_rate);
    f.add(s.repo_rate);
  }
  f.add(std::uint64_t{sys.total_comp_slots()});
  f.add(std::uint64_t{sys.total_opt_slots()});
  f.add(sys.total_ref_ranks());
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    f.add(sys.html_bytes_on_server(i));
    f.add(sys.full_replication_bytes(i));
    f.add(sys.page_request_rate(i));
    f.add(sys.rank_base(i));
    f.add(std::uint64_t{sys.num_referenced(i)});
    for (PageId j : sys.pages_on_server(i)) f.add(std::uint64_t{j});
    for (std::uint32_t r = 0; r < sys.num_referenced(i); ++r) {
      f.add(std::uint64_t{sys.object_at_rank(i, r)});
      for (const PageObjectRef& ref : sys.refs_at_rank(i, r)) {
        f.add(std::uint64_t{ref.page});
        f.add(std::uint64_t{ref.compulsory});
        f.add(std::uint64_t{ref.index});
      }
    }
  }
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    f.add(std::uint64_t{p.host});
    f.add(p.html_bytes);
    f.add(p.frequency);
    f.add(p.optional_scale);
    f.add(std::uint64_t{sys.page_pos_in_host(j)});
    f.add(std::uint64_t{sys.comp_offset(j)});
    f.add(std::uint64_t{sys.opt_offset(j)});
    f.add(sys.page_base_local_time(j));
    f.add(sys.page_base_remote_time(j));
    const auto n_comp = static_cast<std::uint32_t>(p.compulsory.size());
    for (std::uint32_t x = 0; x < n_comp; ++x) {
      f.add(std::uint64_t{p.compulsory[x]});
      f.add(std::uint64_t{sys.comp_order(j)[x]});
      f.add(std::uint64_t{sys.comp_rank(j, x)});
      f.add(sys.comp_local_xfer(j, x));
      f.add(sys.comp_remote_xfer(j, x));
    }
    const auto n_opt = static_cast<std::uint32_t>(p.optional.size());
    for (std::uint32_t x = 0; x < n_opt; ++x) {
      f.add(std::uint64_t{p.optional[x].object});
      f.add(p.optional[x].probability);
      f.add(std::uint64_t{sys.opt_rank(j, x)});
      f.add(sys.opt_local_time(j, x));
      f.add(sys.opt_remote_time(j, x));
      f.add(std::uint64_t{sys.opt_beneficial(j, x)});
    }
  }
  return f.h;
}

}  // namespace mmr::testing
