// Vector-backed FIFO ring: the steady-state-allocation-free deque.
//
// libstdc++'s std::deque allocates and frees a 512-byte chunk every
// time a push/pop cycle crosses a chunk boundary, so even a deque
// whose size oscillates around a constant keeps calling malloc
// forever. The simulator's hottest FIFOs — channel buffers, blocked-
// receiver lists, the live daemon's history store (which also serves
// its span ring) — all have that shape. A RingQueue keeps one contiguous
// power-of-two block and wraps head/tail indices around it: capacity
// grows amortized like a vector, and once the high-water mark is
// reached the queue never allocates again.
#ifndef SRC_UTIL_RING_QUEUE_H_
#define SRC_UTIL_RING_QUEUE_H_

#include <cstddef>
#include <new>
#include <utility>

namespace whodunit::util {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  RingQueue(RingQueue&& other) noexcept
      : slots_(other.slots_), cap_(other.cap_), head_(other.head_), size_(other.size_) {
    other.slots_ = nullptr;
    other.cap_ = 0;
    other.head_ = 0;
    other.size_ = 0;
  }

  RingQueue& operator=(RingQueue&& other) noexcept {
    if (this != &other) {
      Destroy();
      slots_ = other.slots_;
      cap_ = other.cap_;
      head_ = other.head_;
      size_ = other.size_;
      other.slots_ = nullptr;
      other.cap_ = 0;
      other.head_ = 0;
      other.size_ = 0;
    }
    return *this;
  }

  ~RingQueue() { Destroy(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  T& back() { return slots_[Wrap(head_ + size_ - 1)]; }
  const T& back() const { return slots_[Wrap(head_ + size_ - 1)]; }

  // Logical index: [0] is the front (oldest) element.
  T& operator[](size_t i) { return slots_[Wrap(head_ + i)]; }
  const T& operator[](size_t i) const { return slots_[Wrap(head_ + i)]; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) {
      Grow();
    }
    T* slot = slots_ + Wrap(head_ + size_);
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_front() {
    slots_[head_].~T();
    head_ = Wrap(head_ + 1);
    --size_;
  }

  void clear() {
    while (size_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 8;

  size_t Wrap(size_t i) const { return i & (cap_ - 1); }

  void Grow() {
    const size_t next = cap_ == 0 ? kMinCapacity : cap_ * 2;
    T* block = static_cast<T*>(
        ::operator new(next * sizeof(T), std::align_val_t(alignof(T))));
    for (size_t i = 0; i < size_; ++i) {
      T& old = slots_[Wrap(head_ + i)];
      ::new (static_cast<void*>(block + i)) T(std::move(old));
      old.~T();
    }
    if (slots_ != nullptr) {
      ::operator delete(slots_, std::align_val_t(alignof(T)));
    }
    slots_ = block;
    cap_ = next;
    head_ = 0;
  }

  void Destroy() {
    clear();
    if (slots_ != nullptr) {
      ::operator delete(slots_, std::align_val_t(alignof(T)));
      slots_ = nullptr;
      cap_ = 0;
    }
  }

  T* slots_ = nullptr;
  size_t cap_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_RING_QUEUE_H_
