// A small LRU set of object ids: the in-memory object store of the web
// proxy (Squid) and SEDA server (Haboob) stand-ins.
#ifndef SRC_UTIL_LRU_CACHE_H_
#define SRC_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

namespace whodunit::util {

class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  // True on a hit, which also makes `object` the most recently used.
  bool Lookup(uint32_t object) {
    auto it = index_.find(object);
    if (it == index_.end()) {
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  // Inserts a missing object, evicting the least recently used one
  // beyond capacity.
  void Insert(uint32_t object) {
    if (index_.contains(object)) {
      return;
    }
    order_.push_front(object);
    index_[object] = order_.begin();
    if (order_.size() > capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
  }

 private:
  size_t capacity_;
  std::list<uint32_t> order_;
  std::unordered_map<uint32_t, std::list<uint32_t>::iterator> index_;
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_LRU_CACHE_H_
