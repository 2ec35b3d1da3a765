// K-way merge of key-sorted streams: the DES's repository input
// (sim/des.cpp phase B).
//
// Yields every element of k streams in (key, stream index, position)
// order, which is exactly the order a stable sort of the streams'
// concatenation, taken in stream order, would give, without copying or
// sorting anything. The stream heads sit in a binary min-heap ordered by
// (key, stream index) with the keys stored inline; pop() replaces the top
// with its stream's next head and sifts it down once. On the DES's shape
// (50 streams of 22k jobs) it measured faster than a loser tree and about
// twice as fast as the stable sort it replaced (docs/PERFORMANCE.md §11).
//
// Each stream must be sorted by key, and no key may be NaN. pop() checks
// the stream's new head against the one it replaced and throws CheckError
// when a stream runs backwards. The check is one predictable compare per
// element, so it stays on in every build.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace mmr {

template <typename T, typename KeyFn>
class StreamMerge {
 public:
  /// The streams must outlive the merge and stay unmodified while it runs.
  StreamMerge(const std::vector<std::vector<T>>& streams, KeyFn key)
      : streams_(&streams), key_(key), pos_(streams.size(), 0) {
    heap_.reserve(streams.size());
    for (std::uint32_t s = 0; s < streams.size(); ++s) {
      if (streams[s].empty()) continue;
      const double k = key_(streams[s].front());
      MMR_CHECK_MSG(!std::isnan(k), "stream " << s << " starts at NaN");
      heap_.push_back({k, s});
    }
    std::make_heap(heap_.begin(), heap_.end(), later);
  }

  bool empty() const { return heap_.empty(); }

  const T& top() const {
    MMR_DCHECK(!empty());
    const Head& h = heap_.front();
    return (*streams_)[h.stream][pos_[h.stream]];
  }
  double top_key() const { return heap_.front().key; }

  /// Advances past top().
  void pop() {
    MMR_DCHECK(!empty());
    Head h = heap_.front();
    const std::vector<T>& stream = (*streams_)[h.stream];
    const std::size_t p = ++pos_[h.stream];
    if (p == stream.size()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
      return;
    }
    const double next = key_(stream[p]);
    MMR_CHECK_MSG(next >= h.key,
                  "stream " << h.stream << " is not sorted at " << p);
    h.key = next;
    replace_top(h);
  }

 private:
  struct Head {
    double key;
    std::uint32_t stream;
  };

  /// (key, stream) order, reversed for the std:: max-heap algorithms. Ties
  /// go to the lower stream index: the stable sort's order.
  static bool later(const Head& a, const Head& b) {
    return a.key > b.key || (a.key == b.key && a.stream > b.stream);
  }

  void replace_top(const Head& h) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && later(heap_[c], heap_[c + 1])) ++c;
      if (!later(h, heap_[c])) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = h;
  }

  const std::vector<std::vector<T>>* streams_;
  KeyFn key_;
  std::vector<std::size_t> pos_;  ///< cursor per stream
  std::vector<Head> heap_;        ///< heads of the unfinished streams
};

}  // namespace mmr
