// Thread-safe sink for per-simulate-call telemetry shards (obs/obs.h ObsShard,
// obs/timeseries.h TimeseriesShard).
//
// Simulate calls append one shard each (one move under the mutex). Past the
// shard cap a shard is counted in dropped(), never silently lost. Held bytes
// are charged to one memacct category. snapshot() stable-sorts the shards by
// (policy, mode, run) and merges each (policy, mode) group, the canonical
// order that makes artifact bytes independent of thread count; a returned
// shard's `run` is its group's smallest run.
//
// A Shard provides `policy`, `mode`, `run`, approx_bytes() and
// merge(const Shard&).
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "util/memacct.h"

namespace mmr {

template <typename Shard>
class ShardLog {
 public:
  explicit ShardLog(memacct::Category category) : category_(category) {}
  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  void add(Shard&& shard) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shards_.size() >= max_shards_) {
      ++dropped_;
      return;
    }
    const std::size_t bytes = shard.approx_bytes();
    memacct::charge(category_, bytes);
    held_bytes_ += bytes;
    shards_.push_back(std::move(shard));
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    memacct::release(category_, held_bytes_);
    held_bytes_ = 0;
    shards_.clear();
    dropped_ = 0;
  }

  /// Shards currently held.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
  }

  /// Shards rejected past the cap.
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  void set_max_shards(std::size_t max_shards) {
    std::lock_guard<std::mutex> lock(mutex_);
    max_shards_ = max_shards;
  }

  std::vector<Shard> snapshot() const {
    std::vector<Shard> shards;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shards = shards_;
    }
    std::stable_sort(shards.begin(), shards.end(),
                     [](const Shard& a, const Shard& b) {
                       return std::tie(a.policy, a.mode, a.run) <
                              std::tie(b.policy, b.mode, b.run);
                     });
    std::vector<Shard> groups;
    for (Shard& shard : shards) {
      if (!groups.empty() && groups.back().policy == shard.policy &&
          groups.back().mode == shard.mode) {
        groups.back().merge(shard);
      } else {
        groups.push_back(std::move(shard));
      }
    }
    return groups;
  }

 private:
  const memacct::Category category_;
  mutable std::mutex mutex_;
  std::vector<Shard> shards_;
  std::uint64_t dropped_ = 0;
  std::uint64_t held_bytes_ = 0;
  std::size_t max_shards_ = 100000;
};

}  // namespace mmr
