// mmr::memacct — deterministic byte accounting for the big allocations
// (docs/OBSERVABILITY.md "Resource telemetry").
//
// A small process-wide registry of scoped categories (model.csr,
// assignment.bits, solver.scratch, provenance.buffers, sim.events, ...).
// Allocation sites charge the exact byte size of the containers they build
// (capacity-derived, never sampled from the OS), so the charged amounts are
// a pure function of the problem instance — bit-identical at any thread
// count. The registry keeps two planes:
//
//   * per-category current/peak totals (relaxed atomics) — feeds the
//     timeline sampler (util/telemetry.h) and the --mem-budget fail-fast
//     check. Peaks can depend on scheduling when categories are charged
//     from pool workers (e.g. per-server solver scratch), which is fine:
//     this plane is wall-clock telemetry, like trace.json.
//   * `memory.*` gauges, set by the charge sites themselves with the
//     deterministic charge size (util/metrics.h). These land in
//     metrics.json and are identical at any thread count (guarded by
//     test_telemetry).
//
// A budget (set_budget_bytes) turns charge() into a fail-fast guard: the
// first charge that would push the total past the budget throws
// MemBudgetError, so an oversized solve aborts before it starts thrashing
// instead of after the OOM killer finds it. mmrepl_cli maps MemBudgetError
// to exit code kMemBudgetExitCode (3).
#pragma once

#include <cstdint>

#include "util/check.h"

namespace mmr::memacct {

/// Accounting categories; category_name() gives the artifact spelling.
enum class Category : std::uint8_t {
  kModelCsr = 0,        ///< flat per-slot solver caches built by finalize()
  kModelIndex,          ///< derived indices (pages/refs/objects per server)
  kAssignmentBits,      ///< decision-bit CSR arrays (X / X')
  kAssignmentCaches,    ///< incremental caches incl. the dense marks array
  kSolverScratch,       ///< per-server restoration heaps/epoch/allowed maps
  kProvenanceBuffers,   ///< audit + flight recorder event storage
  kSimEvents,           ///< simulator per-request sample capture
  kObsSketches,         ///< streaming-telemetry shards (sketch/hot/window)
  kSimDes,              ///< DES outcomes; repository streams in phase B
  kObsTimeseries,       ///< per-station queue-dynamics window cells
};
inline constexpr std::size_t kCategoryCount = 10;

/// "model.csr", "assignment.bits", ... — stable artifact names.
const char* category_name(Category cat);

/// Thrown by charge() when a budget is set and would be exceeded.
class MemBudgetError : public CheckError {
 public:
  explicit MemBudgetError(const std::string& what) : CheckError(what) {}
};

/// Exit code mmrepl_cli uses for a failed --mem-budget check, distinct from
/// generic errors (1) and constraint violations (2).
inline constexpr int kMemBudgetExitCode = 3;

/// Adds `bytes` to the category's current total (and the process total),
/// updating peaks. Throws MemBudgetError when a budget is set and the new
/// process total would exceed it — the charge is not applied in that case.
void charge(Category cat, std::uint64_t bytes);

/// Subtracts `bytes` from the category's current total. Releasing more than
/// was charged clamps to zero (defensive; indicates a site bug).
void release(Category cat, std::uint64_t bytes);

std::uint64_t current_bytes(Category cat);
std::uint64_t peak_bytes(Category cat);
/// Sum over categories of current (resp. peak-of-the-total) bytes.
std::uint64_t total_current_bytes();
std::uint64_t total_peak_bytes();

/// Fail-fast budget in bytes; 0 (default) disables the check.
void set_budget_bytes(std::uint64_t bytes);
std::uint64_t budget_bytes();

/// Throws MemBudgetError when a budget is set and current + extra_bytes
/// would exceed it. Used for pre-flight estimates (e.g. "would the
/// Assignment this solve is about to build fit?") before any allocation.
void check_headroom(std::uint64_t extra_bytes, const char* what);

/// Rebases every peak to the corresponding current total (budget and
/// current charges untouched). Multi-phase harnesses (bench/scale_suite)
/// call this between phases so each phase's total_peak_bytes() reports its
/// own high-water mark instead of the largest phase seen so far.
void reset_peaks();

/// Test hook: zeroes every current/peak total (does not touch the budget).
void reset_for_test();

/// RAII charge that follows its owner's copy/move semantics: copying an
/// owner copies its containers, so a copied charge re-charges the same
/// bytes; a moved-from charge is emptied. Default-constructed holds nothing.
class Charge {
 public:
  Charge() = default;
  Charge(Category cat, std::uint64_t bytes) : cat_(cat), bytes_(bytes) {
    charge(cat_, bytes_);
  }
  ~Charge() { release(cat_, bytes_); }

  Charge(const Charge& other) : cat_(other.cat_), bytes_(other.bytes_) {
    charge(cat_, bytes_);
  }
  Charge& operator=(const Charge& other) {
    if (this != &other) reset(other.cat_, other.bytes_);
    return *this;
  }
  Charge(Charge&& other) noexcept : cat_(other.cat_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  Charge& operator=(Charge&& other) noexcept {
    if (this != &other) {
      release(cat_, bytes_);
      cat_ = other.cat_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }

  /// Releases the held bytes and charges the new amount.
  void reset(Category cat, std::uint64_t bytes) {
    release(cat_, bytes_);
    cat_ = cat;
    bytes_ = 0;          // stay consistent if the new charge throws
    charge(cat, bytes);  // may throw MemBudgetError
    bytes_ = bytes;
  }

  std::uint64_t bytes() const { return bytes_; }

 private:
  Category cat_ = Category::kModelCsr;
  std::uint64_t bytes_ = 0;
};

}  // namespace mmr::memacct
