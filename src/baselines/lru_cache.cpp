#include "baselines/lru_cache.h"

#include <algorithm>

#include "util/check.h"

namespace mmr {

LruCache::LruCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

void LruCache::link_front(ObjectId key) {
  Node& n = nodes_[key];
  n.prev = kInvalidId;
  n.next = head_;
  if (head_ != kInvalidId) {
    nodes_[head_].prev = key;
  } else {
    tail_ = key;
  }
  head_ = key;
}

void LruCache::unlink(ObjectId key) {
  const Node& n = nodes_[key];
  if (n.prev != kInvalidId) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kInvalidId) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void LruCache::move_to_front(ObjectId key) {
  if (head_ == key) return;
  unlink(key);
  link_front(key);
}

bool LruCache::access(ObjectId key) {
  if (!contains(key)) {
    ++misses_;
    return false;
  }
  ++hits_;
  move_to_front(key);
  return true;
}

bool LruCache::contains(ObjectId key) const {
  return key < nodes_.size() && nodes_[key].present;
}

void LruCache::evict_for(std::uint64_t bytes) {
  while (used_ + bytes > capacity_) {
    MMR_DCHECK(tail_ != kInvalidId);
    const ObjectId victim = tail_;
    unlink(victim);
    Node& n = nodes_[victim];
    n.present = false;
    used_ -= n.bytes;
    --size_;
    ++evictions_;
  }
}

bool LruCache::insert(ObjectId key, std::uint64_t bytes) {
  if (bytes > capacity_) return false;
  if (contains(key)) {
    // Refresh; sizes are immutable per object so bytes must match.
    MMR_DCHECK(nodes_[key].bytes == bytes);
    move_to_front(key);
    return true;
  }
  MMR_CHECK(key != kInvalidId);
  if (key >= nodes_.size()) {
    nodes_.resize(std::max<std::size_t>(key + std::size_t{1},
                                        2 * nodes_.size()));
  }
  evict_for(bytes);
  Node& n = nodes_[key];
  n.bytes = bytes;
  n.present = true;
  link_front(key);
  used_ += bytes;
  ++size_;
  return true;
}

bool LruCache::erase(ObjectId key) {
  if (!contains(key)) return false;
  unlink(key);
  Node& n = nodes_[key];
  n.present = false;
  used_ -= n.bytes;
  --size_;
  return true;
}

}  // namespace mmr
