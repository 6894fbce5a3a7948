#include "src/sim/lock.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/util/shard_state.h"

namespace whodunit::sim {
namespace {

// Thread-local so concurrent shard simulations allocate disjoint id
// streams; registered with the shard-state registry so every shard
// isolate restarts the stream from 0 (deterministic ids regardless of
// which pool thread runs the shard).
uint64_t& LockIdCounter() {
  thread_local uint64_t next = 0;
  return next;
}

uint64_t NextLockId() { return LockIdCounter()++; }

const util::ShardCounterRegistrar lock_id_registrar{util::ShardCounter{
    []() { return LockIdCounter(); },
    [](uint64_t v) { LockIdCounter() = v; },
    0,
}};

}  // namespace

LockGuard::LockGuard(LockGuard&& other) noexcept
    : lock_(std::exchange(other.lock_, nullptr)), tag_(other.tag_) {}

LockGuard& LockGuard::operator=(LockGuard&& other) noexcept {
  if (this != &other) {
    Release();
    lock_ = std::exchange(other.lock_, nullptr);
    tag_ = other.tag_;
  }
  return *this;
}

void LockGuard::Release() {
  if (lock_ != nullptr) {
    lock_->Release(tag_);
    lock_ = nullptr;
  }
}

SimMutex::SimMutex(Scheduler& sched, std::string name)
    : sched_(sched), name_(std::move(name)), id_(NextLockId()) {}

bool SimMutex::CanGrantNow(LockMode mode) const {
  if (!waiters_.empty()) {
    return false;  // FIFO: nobody jumps the queue.
  }
  if (holders_.empty()) {
    return true;
  }
  return mode == LockMode::kShared && holder_mode_ == LockMode::kShared;
}

void SimMutex::GrantTo(uint64_t tag, LockMode mode) {
  holders_.push_back(tag);
  holder_mode_ = mode;
  ++acquire_count_;
}

uint64_t SimMutex::CurrentBlockingTag() const {
  if (holders_.empty()) {
    return LockObserver::kNoTag;
  }
  return holders_.front();
}

bool SimMutex::AcquireAwaiter::await_ready() {
  if (!lock.CanGrantNow(mode)) {
    return false;
  }
  lock.GrantTo(tag, mode);
  if (lock.observer_ != nullptr) {
    lock.observer_->OnAcquired(lock, tag, LockObserver::kNoTag, 0);
  }
  return true;
}

void SimMutex::AcquireAwaiter::await_suspend(std::coroutine_handle<> h) {
  enqueued_at = lock.sched_.now();
  blocking_tag = lock.CurrentBlockingTag();
  ++lock.contended_count_;
  lock.waiters_.push_back(Waiter{tag, mode, h, enqueued_at, blocking_tag});
}

void SimMutex::Release(uint64_t tag) {
  auto it = std::find(holders_.begin(), holders_.end(), tag);
  if (it != holders_.end()) {
    holders_.erase(it);
  }
  if (observer_ != nullptr) {
    observer_->OnReleased(*this, tag);
  }
  PumpQueue();
}

void SimMutex::PumpQueue() {
  if (!holders_.empty() || waiters_.empty()) {
    // Shared holders remain: an exclusive waiter must keep waiting, and
    // FIFO bars later shared waiters from overtaking it.
    return;
  }
  // Grant the front waiter; if it is shared, grant the whole adjacent
  // shared batch. Grantees leave the ring one at a time, in queue
  // order, each before its observer call and resume.
  const bool shared = waiters_.front().mode == LockMode::kShared;
  do {
    const Waiter w = waiters_.front();
    waiters_.pop_front();
    GrantTo(w.tag, w.mode);
    const SimTime wait = sched_.now() - w.enqueued_at;
    total_wait_ += wait;
    if (observer_ != nullptr) {
      observer_->OnAcquired(*this, w.tag, w.blocking_tag, wait);
    }
    sched_.ResumeAfter(0, w.handle);
  } while (shared && !waiters_.empty() && waiters_.front().mode == LockMode::kShared);
}

}  // namespace whodunit::sim
