// Simulated locks with FIFO queueing, shared/exclusive modes, wait
// accounting, and observer hooks.
//
// These are the locks the reproduced applications contend on (the
// MiniDB table/row locks, the web-server queue mutex). The observer
// hook is how transaction crosstalk (paper §6) is measured: every
// acquire reports how long the requester waited and which holder was
// blocking it when the wait began.
#ifndef SRC_SIM_LOCK_H_
#define SRC_SIM_LOCK_H_

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/scheduler.h"
#include "src/sim/time.h"
#include "src/util/ring_queue.h"

namespace whodunit::sim {

enum class LockMode { kShared, kExclusive };

class SimMutex;

// Receives lock events. Tags are opaque 64-bit values chosen by the
// caller; the crosstalk recorder passes transaction-type ids.
class LockObserver {
 public:
  virtual ~LockObserver() = default;

  // Fired when a requester obtains the lock. wait == 0 means it was
  // granted immediately; otherwise blocking_tag identifies the holder
  // that was in the way when the wait began (kNoTag if unknown).
  virtual void OnAcquired(const SimMutex& lock, uint64_t waiter_tag, uint64_t blocking_tag,
                          SimTime wait) = 0;

  // Fired on release.
  virtual void OnReleased(const SimMutex& lock, uint64_t holder_tag) = 0;

  static constexpr uint64_t kNoTag = ~0ull;
};

// Movable RAII guard: releases on destruction unless released manually.
class LockGuard {
 public:
  LockGuard() = default;
  LockGuard(SimMutex* lock, uint64_t tag) : lock_(lock), tag_(tag) {}
  LockGuard(LockGuard&& other) noexcept;
  LockGuard& operator=(LockGuard&& other) noexcept;
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;
  ~LockGuard() { Release(); }

  void Release();
  bool held() const { return lock_ != nullptr; }

 private:
  SimMutex* lock_ = nullptr;
  uint64_t tag_ = 0;
};

// A virtual-time lock. Grant order is strict FIFO; a batch of adjacent
// shared requests at the queue head is granted together. FIFO ordering
// prevents writer starvation and keeps runs deterministic.
class SimMutex {
 public:
  explicit SimMutex(Scheduler& sched, std::string name = "lock");

  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  // Awaitable: co_await lock.Acquire(tag, mode);
  // The caller must pair it with Release(tag).
  struct AcquireAwaiter {
    SimMutex& lock;
    uint64_t tag;
    LockMode mode;
    SimTime enqueued_at = 0;
    uint64_t blocking_tag = LockObserver::kNoTag;

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  AcquireAwaiter Acquire(uint64_t tag = 0, LockMode mode = LockMode::kExclusive) {
    return AcquireAwaiter{*this, tag, mode};
  }

  // Awaitable returning a LockGuard that releases automatically.
  struct ScopedAwaiter {
    AcquireAwaiter inner;
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    LockGuard await_resume() noexcept { return LockGuard(&inner.lock, inner.tag); }
  };
  ScopedAwaiter AcquireScoped(uint64_t tag = 0, LockMode mode = LockMode::kExclusive) {
    return ScopedAwaiter{AcquireAwaiter{*this, tag, mode}};
  }

  // Releases one holding with the given tag. Grants queued waiters.
  void Release(uint64_t tag);

  void set_observer(LockObserver* observer) { observer_ = observer; }

  const std::string& name() const { return name_; }
  uint64_t id() const { return id_; }

  // Introspection / statistics.
  bool held() const { return !holders_.empty(); }
  bool held_exclusive() const { return !holders_.empty() && holder_mode_ == LockMode::kExclusive; }
  size_t queue_length() const { return waiters_.size(); }
  uint64_t acquire_count() const { return acquire_count_; }
  uint64_t contended_count() const { return contended_count_; }
  SimTime total_wait() const { return total_wait_; }

 private:
  friend struct AcquireAwaiter;

  struct Waiter {
    uint64_t tag;
    LockMode mode;
    std::coroutine_handle<> handle;
    SimTime enqueued_at;
    uint64_t blocking_tag;
  };

  // True if a request in `mode` can be granted right now, respecting
  // FIFO (nothing may jump a non-empty queue).
  bool CanGrantNow(LockMode mode) const;
  void GrantTo(uint64_t tag, LockMode mode);
  // Current tag blocking a new requester (front exclusive holder, or
  // an arbitrary shared holder for an exclusive requester).
  uint64_t CurrentBlockingTag() const;
  void PumpQueue();

  Scheduler& sched_;
  std::string name_;
  uint64_t id_;
  LockObserver* observer_ = nullptr;

  std::vector<uint64_t> holders_;  // tags of current holders
  LockMode holder_mode_ = LockMode::kExclusive;
  // A ring, not a deque: a contended lock's queue cycles forever, and
  // std::deque would keep allocating chunks as it wraps.
  util::RingQueue<Waiter> waiters_;

  uint64_t acquire_count_ = 0;
  uint64_t contended_count_ = 0;
  SimTime total_wait_ = 0;
};

}  // namespace whodunit::sim

#endif  // SRC_SIM_LOCK_H_
