#include "baselines/lru_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace mmr {
namespace {

TEST(LruCache, HitAndMissAccounting) {
  LruCache cache(100);
  EXPECT_FALSE(cache.access(1));
  EXPECT_TRUE(cache.insert(1, 40));
  EXPECT_TRUE(cache.access(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.used_bytes(), 40u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(100);
  cache.insert(1, 40);
  cache.insert(2, 40);
  cache.access(1);          // 2 is now LRU
  cache.insert(3, 40);      // must evict 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCache, EvictsMultipleForLargeInsert) {
  LruCache cache(100);
  cache.insert(1, 30);
  cache.insert(2, 30);
  cache.insert(3, 30);
  cache.insert(4, 70);  // evicts 1 and 2 (30+70 <= 100)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(LruCache, RejectsOversizedObject) {
  LruCache cache(50);
  EXPECT_FALSE(cache.insert(1, 51));
  EXPECT_TRUE(cache.empty());
  EXPECT_TRUE(cache.insert(2, 50));  // exactly fits
  EXPECT_EQ(cache.used_bytes(), 50u);
}

TEST(LruCache, ZeroCapacityHoldsNothing) {
  LruCache cache(0);
  EXPECT_FALSE(cache.insert(1, 1));
  EXPECT_FALSE(cache.access(1));
  EXPECT_TRUE(cache.empty());
}

TEST(LruCache, ReinsertRefreshesRecency) {
  LruCache cache(100);
  cache.insert(1, 40);
  cache.insert(2, 40);
  cache.insert(1, 40);     // refresh: 2 becomes LRU
  cache.insert(3, 40);     // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.used_bytes(), 80u);  // no double count on refresh
}

TEST(LruCache, AccessRefreshesRecency) {
  LruCache cache(90);
  cache.insert(1, 30);
  cache.insert(2, 30);
  cache.insert(3, 30);
  cache.access(1);      // order (MRU->LRU): 1, 3, 2
  cache.insert(4, 30);  // evicts 2
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
}

TEST(LruCache, EraseFreesSpace) {
  LruCache cache(100);
  cache.insert(1, 60);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_TRUE(cache.insert(2, 100));
}

TEST(LruCache, ContainsDoesNotTouchRecency) {
  LruCache cache(60);
  cache.insert(1, 30);
  cache.insert(2, 30);
  EXPECT_TRUE(cache.contains(1));  // peek only; 1 stays LRU
  cache.insert(3, 30);             // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LruCache, StressConsistency) {
  LruCache cache(1000);
  std::uint64_t next_key = 0;
  for (int round = 0; round < 2000; ++round) {
    cache.insert(static_cast<ObjectId>(next_key++ % 50),
                 (round % 90) + 10);
    ASSERT_LE(cache.used_bytes(), 1000u);
  }
  EXPECT_GT(cache.evictions(), 0u);
}

// Reference model: the textbook list + hash-map LRU with the same contract
// (refresh on hit and on re-insert, oversize rejection, evict from the back
// until the new entry fits).
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity) {}

  bool access(ObjectId key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  bool contains(ObjectId key) const { return map_.count(key) > 0; }
  bool insert(ObjectId key, std::uint64_t bytes) {
    if (bytes > capacity_) return false;
    const auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    while (used_ + bytes > capacity_) {
      used_ -= order_.back().second;
      map_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, bytes);
    map_[key] = order_.begin();
    used_ += bytes;
    return true;
  }
  bool erase(ObjectId key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    used_ -= it->second->second;
    order_.erase(it->second);
    map_.erase(it);
    return true;
  }

  std::uint64_t used_bytes() const { return used_; }
  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  using Entry = std::pair<ObjectId, std::uint64_t>;
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::list<Entry> order_;
  std::unordered_map<ObjectId, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

// Seeded differential run: random access / insert / erase / contains over a
// key pool mixing small dense ids with sparse large ones, at capacities from
// zero up; every return value and counter must match the reference.
TEST(LruCache, MatchesReferenceModel) {
  for (const std::uint64_t capacity : {0u, 1u, 100u, 1000u, 5000u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 7919 + capacity);
      std::vector<ObjectId> keys;
      std::vector<std::uint64_t> sizes;
      for (ObjectId k = 0; k < 24; ++k) keys.push_back(k);
      for (ObjectId k : {1000u, 4097u, 65536u, 200003u}) keys.push_back(k);
      for (std::size_t n = 0; n < keys.size(); ++n) {
        // Mostly sizes that fit; about one key in eight is oversized, and
        // some are zero bytes.
        const std::uint64_t bound = capacity + 1;
        sizes.push_back(rng.bernoulli(0.125) ? capacity + 1 + rng.bounded(50)
                                             : rng.bounded(bound / 4 + 1));
      }
      LruCache cache(capacity);
      ReferenceLru ref(capacity);
      for (int step = 0; step < 4000; ++step) {
        const std::size_t n = rng.bounded(keys.size());
        const ObjectId k = keys[n];
        const std::uint64_t op = rng.bounded(10);
        SCOPED_TRACE(::testing::Message() << "capacity " << capacity
                                          << " seed " << seed << " step "
                                          << step << " op " << op << " key "
                                          << k);
        if (op < 4) {
          ASSERT_EQ(cache.access(k), ref.access(k));
        } else if (op < 8) {
          ASSERT_EQ(cache.insert(k, sizes[n]), ref.insert(k, sizes[n]));
        } else if (op < 9) {
          ASSERT_EQ(cache.erase(k), ref.erase(k));
        } else {
          ASSERT_EQ(cache.contains(k), ref.contains(k));
        }
        ASSERT_EQ(cache.used_bytes(), ref.used_bytes());
        ASSERT_EQ(cache.size(), ref.size());
        ASSERT_EQ(cache.empty(), ref.size() == 0);
        ASSERT_EQ(cache.hits(), ref.hits());
        ASSERT_EQ(cache.misses(), ref.misses());
        ASSERT_EQ(cache.evictions(), ref.evictions());
        ASSERT_LE(cache.used_bytes(), capacity);
      }
      for (ObjectId k : keys) EXPECT_EQ(cache.contains(k), ref.contains(k));
      EXPECT_FALSE(cache.contains(kInvalidId - 1));  // never grown that far
    }
  }
}

}  // namespace
}  // namespace mmr
