// The discrete-event scheduler's event queue. It orders 16-byte
// EventKeys only; the payloads stay put in the scheduler's EventSlab
// (src/sim/event.h).
//
// LadderQueue is Tang, Goh & Thng's ladder queue ("Ladder Queue: An
// O(1) priority queue structure for large-scale discrete event
// simulation", TOMACS 2005), simplified: a small sorted near-future
// "bottom" that Pop consumes directly, a stack of rungs — each a wheel
// of FIFO buckets, a finer rung subdividing one over-full bucket of
// the rung above — and an unsorted far-future "top" that absorbs
// arbitrarily distant events in O(1). As in the paper the bottom is
// capped near 50 keys: past the cap its later part spills into a rung,
// so a sorted insert never shifts more than a few hundred bytes.
//
// Correctness does not depend on any of that structure: every key is
// a TOTAL order, so the only contract a queue must meet is "Pop
// returns the minimum key". The ladder and the binary-heap oracle
// (src/sim/heap_scheduler.h) therefore produce byte-identical
// simulations, which the randomized differential tests in
// tests/sim_scheduler_test.cc exercise and which keeps the shard merge
// determinism contract intact.
//
// Tier responsibility regions are contiguous and exhaustive:
//   [0, bottom_limit_)            -> bottom (sorted insert)
//   [bottom_limit_, rung ends...) -> finest rung whose range covers t
//   [last rung end, +inf)         -> top (unsorted append)
#ifndef SRC_SIM_LADDER_QUEUE_H_
#define SRC_SIM_LADDER_QUEUE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/event.h"
#include "src/sim/time.h"

namespace whodunit::sim {

// Deterministic structural counters, exported by the scheduler as
// sim.* metrics (docs/METRICS.md). Event times alone decide every
// transition, so the counts are identical across thread counts.
struct QueueStats {
  uint64_t peak_depth = 0;   // max events resident at once
  uint64_t spills = 0;       // events deferred to the unsorted top tier
  uint64_t promotions = 0;   // rungs spawned (subdivisions, bottom spills, top seeds)
  uint64_t refills = 0;      // bottom refills (bucket sorts)
};

class LadderQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const QueueStats& stats() const { return stats_; }

  void Push(EventKey key);

  // Earliest key, or nullptr when empty. May reorganize tiers to
  // materialize the head; the pointer is invalidated by Push/Pop.
  const EventKey* Peek();

  // Requires !empty().
  EventKey Pop();

 private:
  struct Rung {
    SimTime origin = 0;  // start of covered range
    SimTime limit = 0;   // exclusive end of covered range (routing key)
    int shift = 0;       // bucket width is 1 << shift: routing needs no divide
    size_t cur = 0;      // first bucket not yet drained
    size_t count = 0;    // buckets in use: [0, count)
    // Drained buckets are left empty, so a recycled rung starts clean.
    // The vector only grows: a respawn with fewer buckets keeps the
    // rest (and their capacity) for the next wider one, so recycling
    // rungs stops allocating once each has seen its widest spawn.
    std::vector<std::vector<EventKey>> buckets;
  };

  static constexpr SimTime kVirginLimit =
      std::numeric_limits<SimTime>::max();
  static constexpr size_t kBottomMax = 48;    // the paper's THRES (~50)
  static constexpr size_t kBottomKeep = 16;   // retained on bottom spill
  static constexpr size_t kSortMax = 32;      // bucket -> bottom cutoff
  static constexpr size_t kBucketTarget = 2;  // keys per bucket a rung is sized for
  static constexpr size_t kMaxBuckets = 512;  // wheel size cap per rung
  static constexpr size_t kBucketKeep = 64;   // capacity a drained bucket keeps
  static constexpr size_t kMaxRungs = 16;

  // Ensures bottom_.back() is the global minimum (or the queue is
  // empty), refilling/subdividing as needed.
  void EnsureBottom();
  // Starts a fresh finest rung covering [origin, limit), sized for
  // `events` keys, and hands bottom the region below it.
  Rung& SpawnRung(SimTime origin, SimTime limit, size_t events);
  // Bottom's ordering: sorted latest-first.
  static bool Later(const EventKey& a, const EventKey& b) {
    return EventBefore(b, a);
  }
  static void AddToRung(Rung& r, const EventKey& key);
  void PushToRungOrTop(const EventKey& key);
  void AppendTop(const EventKey& key);
  // Sheds the later part of an over-full bottom into a finer tier so
  // sorted inserts stay O(kBottomMax).
  void SpillBottom();

  // Sorted latest-first, so Pop takes back() and leaves nothing behind.
  std::vector<EventKey> bottom_;
  // Exclusive upper bound of the region bottom is responsible for.
  SimTime bottom_limit_ = kVirginLimit;

  // [0, live_rungs_) are live, coarsest first; the rest keep their
  // bucket storage for the next SpawnRung.
  std::array<Rung, kMaxRungs> rungs_;
  size_t live_rungs_ = 0;

  std::vector<EventKey> top_;
  SimTime top_min_ = 0;
  SimTime top_max_ = 0;

  size_t size_ = 0;
  QueueStats stats_;
};

// The per-event paths are inline; tier reorganization is out of line.

inline void LadderQueue::Push(EventKey key) {
  ++size_;
  if (size_ > stats_.peak_depth) {
    stats_.peak_depth = size_;
  }
  if (key.time < bottom_limit_) {
    // Every new key sorts after every already-consumed one (time >=
    // now, fresh seq), and bottom is short, so this shifts at most
    // kBottomMax keys.
    bottom_.insert(
        std::lower_bound(bottom_.begin(), bottom_.end(), key, Later), key);
    if (bottom_.size() > kBottomMax) {
      SpillBottom();
    }
    return;
  }
  PushToRungOrTop(key);
}

inline void LadderQueue::AddToRung(Rung& r, const EventKey& key) {
  size_t idx = static_cast<size_t>((key.time - r.origin) >> r.shift);
  if (idx >= r.count) {
    idx = r.count - 1;
  }
  if (idx < r.cur) {
    idx = r.cur;  // defensive: never land in a drained bucket
  }
  r.buckets[idx].push_back(key);
}

inline void LadderQueue::PushToRungOrTop(const EventKey& key) {
  // Finest (earliest-range) rung first: tier regions are contiguous,
  // so the first rung whose limit exceeds t owns it.
  for (size_t i = live_rungs_; i-- > 0;) {
    if (key.time < rungs_[i].limit) {
      AddToRung(rungs_[i], key);
      return;
    }
  }
  AppendTop(key);
}

inline void LadderQueue::AppendTop(const EventKey& key) {
  if (top_.empty()) {
    top_min_ = top_max_ = key.time;
  } else {
    top_min_ = std::min(top_min_, key.time);
    top_max_ = std::max(top_max_, key.time);
  }
  top_.push_back(key);
  ++stats_.spills;
}

inline const EventKey* LadderQueue::Peek() {
  if (size_ == 0) {
    return nullptr;
  }
  if (bottom_.empty()) {
    EnsureBottom();
  }
  return &bottom_.back();
}

inline EventKey LadderQueue::Pop() {
  if (bottom_.empty()) {
    EnsureBottom();
  }
  const EventKey key = bottom_.back();
  bottom_.pop_back();
  --size_;
  // Materialize the next head now rather than at the next Pop, so the
  // scheduler can prefetch its payload while this one fires.
  if (bottom_.empty() && size_ > 0) {
    EnsureBottom();
  }
  return key;
}

}  // namespace whodunit::sim

#endif  // SRC_SIM_LADDER_QUEUE_H_
