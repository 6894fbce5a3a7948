// The binary-heap scheduler: sim::Scheduler's calendar as it was before
// the ladder queue and the event slab — a std::priority_queue that
// keeps whole events and moves them on every sift. It is the
// differential-test oracle for sim::Scheduler (tests/sim_scheduler_test.cc)
// and the baseline leg of the hold benchmarks in bench_scaling_clients;
// no simulation runs on it.
//
// Both schedulers order events by the same (time, seq) total order, so
// they execute identical sequences.
#ifndef SRC_SIM_HEAP_SCHEDULER_H_
#define SRC_SIM_HEAP_SCHEDULER_H_

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/event.h"
#include "src/sim/time.h"

namespace whodunit::sim {

class HeapScheduler {
 public:
  SimTime now() const { return now_; }

  template <typename F>
  void ScheduleAt(SimTime t, F&& cb) {
    Event ev;
    ev.Set(std::forward<F>(cb));
    queue_.push(Entry{t < now_ ? now_ : t, next_seq_++, std::move(ev)});
  }

  template <typename F>
  void ScheduleAfter(SimTime dt, F&& cb) {
    ScheduleAt(now_ + (dt < 0 ? 0 : dt), std::forward<F>(cb));
  }

  void Run() {
    while (Step()) {
    }
  }

  void RunUntil(SimTime t) {
    while (!queue_.empty() && queue_.top().time <= t) {
      Step();
    }
    if (now_ < t) {
      now_ = t;
    }
  }

  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    // Move out before popping: the payload is move-only and pop()
    // would destroy it in place.
    Entry item = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    now_ = item.time;
    item.ev.Fire();
    return true;
  }

  bool empty() const { return queue_.empty(); }
  size_t queue_depth() const { return queue_.size(); }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    Event ev;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace whodunit::sim

#endif  // SRC_SIM_HEAP_SCHEDULER_H_
