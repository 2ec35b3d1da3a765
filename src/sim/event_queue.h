// Minimal discrete-event kernel: a time-ordered queue with deterministic
// FIFO tie-breaking. The simulators queue deferred work in it (optional-
// object fetches, DES completions) and merge their already-sorted page
// arrivals against it by peek, so shared per-server state (LRU cache,
// admission bucket, stations) is touched in true chronological order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace mmr {

template <typename Event>
class EventQueue {
 public:
  struct Item {
    double time;
    std::uint64_t seq;  ///< insertion order; breaks ties deterministically
    Event event;
  };

  void push(double time, Event event) {
    if (time < last_popped_) {
      // Same-time reschedules computed as now + dt - dt can land a few ulps
      // before now(); clamp those to now so they keep FIFO order behind the
      // event being handled. A genuinely past time is still a caller bug.
      MMR_DCHECK(last_popped_ - time <=
                 1e-9 * std::max(1.0, std::abs(last_popped_)));
      time = last_popped_;
    }
    heap_.push_back({time, next_seq_++, std::move(event)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  const Item& peek() const {
    MMR_DCHECK(!heap_.empty());
    return heap_.front();
  }

  Item pop() {
    MMR_DCHECK(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Item item = std::move(heap_.back());
    heap_.pop_back();
    last_popped_ = item.time;
    return item;
  }

  /// Time of the most recently popped event (0 before any pop).
  double now() const { return last_popped_; }

  /// Drops all events and rewinds the clock; heap storage is kept, so a
  /// reused queue allocates nothing in steady state (sim/des.cpp).
  void clear() {
    heap_.clear();
    next_seq_ = 0;
    last_popped_ = 0;
  }

 private:
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Item> heap_;
  std::uint64_t next_seq_ = 0;
  double last_popped_ = 0;
};

}  // namespace mmr
