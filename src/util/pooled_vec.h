// Arena-backed small vector: contiguous storage drawn from the
// calling thread's ArenaPool instead of malloc.
//
// The live-observability pipeline (src/obs/live) builds, ships, and
// retires one TxnEvent per published transaction. Backing each event's
// span and attribution blocks with std::vector means two mallocs and
// two frees per transaction on the hottest always-on path in the
// system. A PooledVec draws its block from ArenaPool::ThisThread()
// and returns it there on destruction, so the blocks recycle through
// the pool's size-class freelists: steady-state publication makes no
// malloc calls at all (bench_ablation_live_obs asserts this with an
// operator-new counter).
//
// Semantics match the std::vector subset the pipeline needs: value
// copy/move, push/clear/iterate. Moves steal the block (the batch
// hand-off and the history push are pointer swaps); copies (a
// RecentEvents() snapshot) allocate from the destination thread's
// pool. A block may be freed on a different thread than the
// one that allocated it — pool blocks are plain heap memory, so they
// simply join the freeing thread's freelist.
#ifndef SRC_UTIL_POOLED_VEC_H_
#define SRC_UTIL_POOLED_VEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/util/arena.h"

namespace whodunit::util {

template <typename T>
class PooledVec {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "PooledVec elements must be nothrow-movable (growth moves)");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "ArenaPool blocks carry default new alignment");

 public:
  PooledVec() = default;

  PooledVec(const PooledVec& other) { CopyFrom(other); }

  PooledVec& operator=(const PooledVec& other) {
    if (this != &other) {
      DestroyElements();
      size_ = 0;
      CopyFrom(other);
    }
    return *this;
  }

  PooledVec(PooledVec&& other) noexcept
      : data_(other.data_), size_(other.size_), cap_(other.cap_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
  }

  PooledVec& operator=(PooledVec&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.cap_ = 0;
    }
    return *this;
  }

  ~PooledVec() { Release(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void reserve(size_t n) {
    if (n > cap_) {
      Grow(n);
    }
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) {
      Grow(size_ + 1);
    }
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  // Destroys the elements but keeps the block for reuse.
  void clear() {
    DestroyElements();
    size_ = 0;
  }

 private:
  static constexpr uint32_t kMinCapacity = 4;

  void CopyFrom(const PooledVec& other) {
    reserve(other.size_);
    for (size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(other.data_[i]);
    }
    size_ = other.size_;
  }

  void Grow(size_t need) {
    size_t next = cap_ == 0 ? kMinCapacity : static_cast<size_t>(cap_) * 2;
    while (next < need) {
      next *= 2;
    }
    T* block = static_cast<T*>(ArenaPool::ThisThread().Allocate(next * sizeof(T)));
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(block + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (data_ != nullptr) {
      ArenaPool::ThisThread().Deallocate(data_, static_cast<size_t>(cap_) * sizeof(T));
    }
    data_ = block;
    cap_ = static_cast<uint32_t>(next);
  }

  void DestroyElements() {
    for (size_t i = size_; i-- > 0;) {
      data_[i].~T();
    }
  }

  void Release() {
    DestroyElements();
    if (data_ != nullptr) {
      ArenaPool::ThisThread().Deallocate(data_, static_cast<size_t>(cap_) * sizeof(T));
    }
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
  }

  T* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_POOLED_VEC_H_
