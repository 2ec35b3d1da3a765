// The one virtual-time windowing container: the SLO windows of mmr-sketch
// (obs/window.h) and the DES station series of mmr-timeseries
// (obs/timeseries.h) both keep their per-window cells here.
//
// Virtual time is cut into fixed windows of width w; instant t lands in
// window t * (1/w) (truncated; t <= 0 lands in window 0). New cells are
// copies of a prototype, so cells whose members need constructor
// arguments (a sketch of a given resolution) work too. Cells fold through
// Cell::add(const Cell&), which must be exact: counts and sums add, maxima
// take the max, sketches merge.
//
// With a cell cap (max_windows > 0) the windows auto-coarsen: when an
// instant lands at or past window max_windows, the width doubles and
// adjacent cells fold pairwise until it fits — the HdrHistogram resize
// trick applied to time. Coarsening is a pure function of the container's
// own stream, so it cannot perturb artifact byte-stability across shard
// and thread counts. Cap 0 never coarsens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "util/check.h"

namespace mmr {

template <class Cell>
class WindowedCells {
 public:
  using Map = std::map<std::uint64_t, Cell>;

  WindowedCells(double window_s, std::uint64_t max_windows, Cell prototype)
      : window_s_(window_s),
        inv_window_s_(1.0 / window_s),
        max_windows_(max_windows),
        prototype_(std::move(prototype)) {
    MMR_CHECK_MSG(window_s > 0.0, "window width must be > 0");
  }

  /// Copies drop the hot-cell cache: it points into the source's map.
  /// Moves keep it — map nodes transfer ownership without relocating.
  WindowedCells(const WindowedCells& other)
      : window_s_(other.window_s_),
        inv_window_s_(other.inv_window_s_),
        max_windows_(other.max_windows_),
        prototype_(other.prototype_),
        cells_(other.cells_) {}
  WindowedCells& operator=(const WindowedCells& other) {
    return *this = WindowedCells(other);
  }
  WindowedCells(WindowedCells&&) = default;
  WindowedCells& operator=(WindowedCells&&) = default;

  /// Current width: the base doubled once per coarsening fold.
  double window_s() const { return window_s_; }
  std::uint64_t max_windows() const { return max_windows_; }
  /// Occupied cells in ascending window order.
  const Map& map() const { return cells_; }

  /// Multiply-by-inverse bucketing: one mul beats a divide on the per-event
  /// hot path, at the price of an occasional ±1 ulp disagreement with exact
  /// division right on a window boundary. Any consistent bucketing is
  /// correct — totals stay exact, only which side of a boundary an instant
  /// lands on can shift — and it is the same every run, so byte-stability
  /// is unaffected.
  std::uint64_t window_of(double t) const {
    return t <= 0 ? 0 : static_cast<std::uint64_t>(t * inv_window_s_);
  }
  /// Whether window w lies under the cell cap.
  bool fits(std::uint64_t w) const {
    return max_windows_ == 0 || w < max_windows_;
  }
  /// Doubles the width until window_of(t) fits under the cap.
  void fit(double t) {
    while (!fits(window_of(t))) fold_once();
  }

  /// The cell holding instant t, coarsening first if t lands past the cap.
  Cell& at(double t) {
    std::uint64_t w = window_of(t);
    if (!fits(w)) {
      fit(t);
      w = window_of(t);
    }
    return at_index(w);
  }
  /// The cell of window w at the current width. Virtual time is near-
  /// monotone per recorder, so consecutive events usually hit the cached
  /// last-touched cell and skip the map walk.
  Cell& at_index(std::uint64_t w) {
    if (hot_ != nullptr && hot_index_ == w) return *hot_;
    hot_index_ = w;
    hot_ = &slot(cells_, w);
    return *hot_;
  }

  /// Doubles the width, folding cells 2k and 2k+1 into cell k.
  void fold_once() {
    Map folded;
    for (const auto& [index, c] : cells_) slot(folded, index >> 1).add(c);
    cells_.swap(folded);
    window_s_ *= 2;
    inv_window_s_ = 1.0 / window_s_;
    hot_ = nullptr;  // pointed into the old map
  }

  /// Folds `other`'s cells in. Widths may differ by a power of two (both
  /// grew from the same base by coarsening): the finer side folds to the
  /// coarser width first. Throws on any other ratio.
  void merge(const WindowedCells& other) {
    while (window_s_ < other.window_s_) fold_once();
    std::uint64_t shift = 0;
    double w = other.window_s_;
    while (w < window_s_) {
      w *= 2;
      ++shift;
    }
    MMR_CHECK_MSG(w == window_s_,
                  "cannot merge windows with different widths");
    for (const auto& [index, c] : other.cells_) {
      slot(cells_, index >> shift).add(c);
    }
    if (max_windows_ > 0) {
      while (!cells_.empty() && cells_.rbegin()->first >= max_windows_) {
        fold_once();
      }
    }
  }

  /// Heap held by the cells; red-black nodes carry three pointers + color
  /// alongside the payload.
  std::size_t approx_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [index, c] : cells_) {
      bytes += sizeof(index) + c.approx_bytes() + 4 * sizeof(void*);
    }
    return bytes;
  }

 private:
  Cell& slot(Map& map, std::uint64_t w) const {
    return map.try_emplace(w, prototype_).first->second;
  }

  double window_s_;
  double inv_window_s_;
  std::uint64_t max_windows_;
  Cell prototype_;
  Map cells_;
  std::uint64_t hot_index_ = 0;
  Cell* hot_ = nullptr;  ///< cache into cells_; dropped on copy
};

}  // namespace mmr
