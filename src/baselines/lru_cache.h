// Size-aware LRU cache used by the ideal LRU caching/redirection baseline.
//
// Keys are object ids; each entry carries a byte size and the cache holds at
// most `capacity_bytes` in total. Insertion of an oversized object is
// rejected (it can never fit); otherwise least-recently-used entries are
// evicted until the new entry fits.
//
// Object ids are dense, so the recency list is intrusive over flat arrays
// indexed by id (prev/next links, size, presence) that grow on demand to the
// largest id inserted: no per-entry allocation and no hashing.
#pragma once

#include <cstdint>
#include <vector>

#include "model/entities.h"

namespace mmr {

class LruCache {
 public:
  explicit LruCache(std::uint64_t capacity_bytes);

  /// Looks up the object; a hit refreshes recency. Returns true on hit.
  bool access(ObjectId key);
  /// Peeks without touching recency (for tests/diagnostics).
  bool contains(ObjectId key) const;
  /// Inserts (or refreshes) the object, evicting LRU entries to make room.
  /// Returns false iff bytes > capacity (object cannot be cached at all).
  bool insert(ObjectId key, std::uint64_t bytes);
  /// Removes the object if present; returns true if it was there.
  bool erase(ObjectId key);

  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t capacity_bytes() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Node {
    std::uint64_t bytes = 0;
    ObjectId prev = kInvalidId;  // toward the most recent end
    ObjectId next = kInvalidId;  // toward the least recent end
    bool present = false;
  };

  void link_front(ObjectId key);
  void unlink(ObjectId key);
  void move_to_front(ObjectId key);
  void evict_for(std::uint64_t bytes);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::size_t size_ = 0;
  std::vector<Node> nodes_;  // indexed by ObjectId
  ObjectId head_ = kInvalidId;  // most recent
  ObjectId tail_ = kInvalidId;  // least recent
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace mmr
