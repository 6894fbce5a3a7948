// The scheduler's calendar records: a fixed-size event payload, the
// stable slab it lives in while it is pending, and the 16-byte key the
// event queue orders.
//
// Event is a small-buffer-optimized callable that replaces
// std::function<void()>. Three representations, discriminated by vt_:
//   * coroutine resume (vt_ == nullptr): just a coroutine_handle —
//     the overwhelmingly common case (Delay, locks, channels, CPU all
//     suspend/resume coroutines). Zero allocation, zero indirection
//     beyond the resume itself.
//   * inline callable: lambdas up to kInlineBytes construct directly
//     in the event's storage. Zero allocation.
//   * overflow callable: larger lambdas (e.g. a Channel::Send carrying
//     a fat message) live in a block from the per-thread ArenaPool, so
//     even the overflow path recycles memory instead of hitting malloc.
//
// sim::Scheduler builds each event in place in an EventSlab slot and
// fires it there, so a scheduled payload is never moved; its queue
// shuffles only EventKeys. Events stay movable for the binary-heap
// oracle (src/sim/heap_scheduler.h), which keeps whole events in its
// heap as the calendar did before the slab.
#ifndef SRC_SIM_EVENT_H_
#define SRC_SIM_EVENT_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/util/arena.h"

namespace whodunit::sim {

class Event {
 public:
  // 48 bytes of storage plus the vtable pointer make a 64-byte Event
  // (one cache line in an EventSlab); covers every capture list in the
  // simulator's hot paths.
  static constexpr size_t kInlineBytes = 48;
  static constexpr size_t kInlineAlign = 16;

  Event() noexcept { h_ = nullptr; }
  Event(Event&& other) noexcept { MoveFrom(other); }
  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { Reset(); }

  // Stores a payload in an empty event.
  void SetResume(std::coroutine_handle<> h) noexcept { h_ = h; }

  template <typename F>
  void Set(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "overaligned event callables are not supported");
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
      vt_ = &InlineOps<Fn>::vt;
    } else {
      void* mem = util::ArenaPool::ThisThread().Allocate(sizeof(Fn));
      heap_ = ::new (mem) Fn(std::forward<F>(f));
      vt_ = &HeapOps<Fn>::vt;
    }
  }

  // Runs the payload and releases it; the event is empty afterwards.
  void Fire() {
    if (vt_ == nullptr) {
      std::coroutine_handle<> h = h_;
      h_ = nullptr;
      if (h) h.resume();
      return;
    }
    const VTable* vt = vt_;
    vt->invoke(*this);
    vt->destroy(*this);
    vt_ = nullptr;
    h_ = nullptr;
  }

  explicit operator bool() const noexcept {
    return vt_ != nullptr || h_ != nullptr;
  }

 private:
  struct VTable {
    void (*invoke)(Event&);
    void (*destroy)(Event&) noexcept;
    void (*relocate)(Event& dst, Event& src) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* Ptr(Event& e) noexcept {
      return std::launder(reinterpret_cast<Fn*>(e.inline_));
    }
    static void Invoke(Event& e) { (*Ptr(e))(); }
    static void Destroy(Event& e) noexcept { Ptr(e)->~Fn(); }
    static void Relocate(Event& dst, Event& src) noexcept {
      ::new (static_cast<void*>(dst.inline_)) Fn(std::move(*Ptr(src)));
      Ptr(src)->~Fn();
    }
    static constexpr VTable vt = {&Invoke, &Destroy, &Relocate};
  };

  template <typename Fn>
  struct HeapOps {
    static void Invoke(Event& e) { (*static_cast<Fn*>(e.heap_))(); }
    static void Destroy(Event& e) noexcept {
      Fn* p = static_cast<Fn*>(e.heap_);
      p->~Fn();
      util::ArenaPool::ThisThread().Deallocate(p, sizeof(Fn));
    }
    static void Relocate(Event& dst, Event& src) noexcept {
      dst.heap_ = src.heap_;
    }
    static constexpr VTable vt = {&Invoke, &Destroy, &Relocate};
  };

  void MoveFrom(Event& other) noexcept {
    vt_ = other.vt_;
    if (vt_ == nullptr) {
      h_ = other.h_;
    } else {
      vt_->relocate(*this, other);
    }
    other.vt_ = nullptr;
    other.h_ = nullptr;
  }

  void Reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(*this);
      vt_ = nullptr;
    }
    h_ = nullptr;
  }

  union {
    std::coroutine_handle<> h_;
    void* heap_;
    alignas(kInlineAlign) unsigned char inline_[kInlineBytes];
  };
  const VTable* vt_ = nullptr;
};

static_assert(sizeof(Event) == 64, "an Event fills one cache line");

// What the event queue orders: 16 bytes, no payload. (time, seq) is a
// total order — seq is a scheduler-global insertion counter — so ANY
// correct priority queue executes the same sequence, which is what
// keeps shard merges byte-identical no matter which queue runs
// underneath. The payload's slab slot rides in the low kSlotBits of
// the same word as seq; since seqs are unique, comparing the packed
// word compares seq.
struct EventKey {
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kMaxSeq = ~uint64_t{0} >> kSlotBits;

  SimTime time;
  uint64_t tag;  // seq << kSlotBits | slot

  static EventKey Make(SimTime time, uint64_t seq, uint32_t slot) noexcept {
    return {time, seq << kSlotBits | slot};
  }
  uint32_t slot() const noexcept { return static_cast<uint32_t>(tag & kSlotMask); }
};

static_assert(sizeof(EventKey) == 16, "calendar keys are 16 bytes");

inline bool EventBefore(const EventKey& a, const EventKey& b) noexcept {
  return a.time != b.time ? a.time < b.time : a.tag < b.tag;
}

// Stable storage for scheduled events: fixed-size chunks that are
// never reallocated, so an Event keeps its address from scheduling
// until its slot is released — even while a firing callback schedules
// enough new events to grow the slab. Freed slots are reused LIFO (the
// most recently fired payload is the one still in cache). Memory is
// the high-water mark of pending events; chunks are released with the
// slab.
class EventSlab {
 public:
  // Returns the slot of an empty event.
  uint32_t Acquire() {
    if (!free_.empty()) {
      const uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (used_ == chunks_.size() * kChunkEvents) {
      if (used_ == kCapacity) {
        std::fprintf(stderr, "sim: more than %u events pending at once\n",
                     kCapacity);
        std::abort();
      }
      chunks_.push_back(std::make_unique<Slot[]>(kChunkEvents));
    }
    return used_++;
  }

  // The slot's event must be empty again (fired, or never set).
  void Release(uint32_t slot) { free_.push_back(slot); }

  Event& operator[](uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkEvents - 1)].ev;
  }

  // Starts loading a slot's cache line ahead of its Fire().
  void Prefetch(uint32_t slot) noexcept { __builtin_prefetch(&(*this)[slot]); }

 private:
  static constexpr uint32_t kCapacity = uint32_t{1} << EventKey::kSlotBits;
  static constexpr uint32_t kChunkBits = 9;  // 512 events, 32 KiB
  static constexpr uint32_t kChunkEvents = uint32_t{1} << kChunkBits;

  // Line-aligned, so firing an event touches one cache line.
  struct alignas(64) Slot {
    Event ev;
  };

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t used_ = 0;  // slots ever handed out
};

}  // namespace whodunit::sim

#endif  // SRC_SIM_EVENT_H_
