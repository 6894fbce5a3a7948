// A small LRU set of object ids: the in-memory object store of the web
// proxy (Squid) and SEDA server (Haboob) stand-ins.
//
// Object ids are dense (the web trace numbers its objects from 0), so
// the index is a flat array by object id and the recency list is
// threaded through a fixed pool of `capacity` nodes: once the cache is
// full and the index has grown to the largest id seen, a miss evicts
// and inserts without allocating.
#ifndef SRC_UTIL_LRU_CACHE_H_
#define SRC_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace whodunit::util {

class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) { nodes_.reserve(capacity); }

  // True on a hit, which also makes `object` the most recently used.
  bool Lookup(uint32_t object) {
    const uint32_t n = NodeOf(object);
    if (n == kNone) {
      return false;
    }
    Unlink(n);
    PushFront(n);
    return true;
  }

  // Inserts a missing object, evicting the least recently used one
  // beyond capacity.
  void Insert(uint32_t object) {
    if (capacity_ == 0 || NodeOf(object) != kNone) {
      return;
    }
    if (object >= node_of_.size()) {
      node_of_.resize(static_cast<size_t>(object) + 1, kNone);
    }
    uint32_t n;
    if (nodes_.size() < capacity_) {
      n = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back({});
    } else {
      n = tail_;
      Unlink(n);
      node_of_[nodes_[n].object] = kNone;
    }
    nodes_[n].object = object;
    node_of_[object] = n;
    PushFront(n);
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Node {
    uint32_t object = 0;
    uint32_t prev = kNone;  // toward the most recently used
    uint32_t next = kNone;  // toward the least recently used
  };

  uint32_t NodeOf(uint32_t object) const {
    return object < node_of_.size() ? node_of_[object] : kNone;
  }

  void Unlink(uint32_t n) {
    Node& node = nodes_[n];
    (node.prev == kNone ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNone ? tail_ : nodes_[node.next].prev) = node.prev;
  }

  void PushFront(uint32_t n) {
    nodes_[n].prev = kNone;
    nodes_[n].next = head_;
    (head_ == kNone ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
  }

  size_t capacity_;
  std::vector<Node> nodes_;        // the recency list's nodes, at most capacity_
  std::vector<uint32_t> node_of_;  // by object id; kNone when not cached
  uint32_t head_ = kNone;          // most recently used
  uint32_t tail_ = kNone;          // least recently used
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_LRU_CACHE_H_
