// Slot table: recycled records addressed by a dense 32-bit index.
//
// The apps keep per-request state (an accepted connection, a proxy
// request) from the moment a request arrives until its last handler
// finishes. A std::map keyed by a monotonically growing handle pays a
// node allocation per request; a SlotTable hands out the index of a
// released record instead, so once the table has grown to the number
// of requests in flight at once it never allocates again. Records are
// not destroyed on Release: the next Acquire sees the fields its last
// user left, which lets a record keep the capacity of the buffers it
// owns (callers reset what they use).
//
// Records live in fixed-size chunks that are never reallocated, so a
// reference stays valid across Acquire calls — coroutine handlers hold
// one across co_await while other requests arrive.
#ifndef SRC_UTIL_SLOT_TABLE_H_
#define SRC_UTIL_SLOT_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace whodunit::util {

template <typename T>
class SlotTable {
 public:
  // Index of a free record: the most recently released one (LIFO, so
  // it is likely still in cache), or a fresh default-constructed one.
  uint32_t Acquire() {
    if (!free_.empty()) {
      const uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (used_ == chunks_.size() * kChunkSlots) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSlots));
    }
    return used_++;
  }

  // Returns `slot` to the free list; its record stays constructed.
  void Release(uint32_t slot) { free_.push_back(slot); }

  T& operator[](uint32_t slot) { return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)]; }

 private:
  static constexpr uint32_t kChunkBits = 6;
  static constexpr uint32_t kChunkSlots = uint32_t{1} << kChunkBits;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t used_ = 0;  // records ever handed out
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_SLOT_TABLE_H_
