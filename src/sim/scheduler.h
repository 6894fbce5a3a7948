// Discrete-event scheduler: the heart of the virtual-time simulator.
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/obs/metrics.h"
#include "src/sim/event.h"
#include "src/sim/ladder_queue.h"
#include "src/sim/time.h"

namespace whodunit::sim {

// A calendar of (virtual time, callback) events executed in time order.
//
// Ties are broken by insertion order (FIFO), which keeps simulations
// deterministic when many events share a timestamp. The scheduler is
// deliberately minimal: coroutine awaitables (Delay, locks, channels,
// CPU) build on ScheduleAt/ScheduleAfter.
//
// Callbacks are stored as sim::Event records in an EventSlab: coroutine
// resumes carry no allocation at all, small lambdas live inline, and
// oversized ones come from the per-thread arena pool instead of malloc.
// An event is built in its slab slot and fired there, and the slot is
// freed only after Fire() returns, so a payload never moves — not even
// when the running callback schedules enough events to grow the slab.
// The ladder queue (src/sim/ladder_queue.h) orders only 16-byte keys.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() { PublishMetrics(); }

  SimTime now() const { return now_; }

  // Enqueues cb to run at absolute virtual time t (>= now).
  template <typename F>
  void ScheduleAt(SimTime t, F&& cb) {
    const uint32_t slot = slab_.Acquire();
    slab_[slot].Set(std::forward<F>(cb));
    PushEvent(t, slot);
  }

  // Enqueues cb to run dt nanoseconds from now (dt < 0 is clamped to 0).
  template <typename F>
  void ScheduleAfter(SimTime dt, F&& cb) {
    ScheduleAt(now_ + (dt < 0 ? 0 : dt), std::forward<F>(cb));
  }

  // Convenience: resume a coroutine at/after a time. These take the
  // allocation-free fast path through Event::SetResume.
  void ResumeAt(SimTime t, std::coroutine_handle<> h) {
    const uint32_t slot = slab_.Acquire();
    slab_[slot].SetResume(h);
    PushEvent(t, slot);
  }
  void ResumeAfter(SimTime dt, std::coroutine_handle<> h) {
    ResumeAt(now_ + (dt < 0 ? 0 : dt), h);
  }

  // Runs events until the calendar is empty.
  void Run() {
    while (Step()) {
    }
  }

  // Runs events with time <= t, then sets now to t. Events scheduled
  // beyond t stay queued.
  void RunUntil(SimTime t) {
    while (const EventKey* head = queue_.Peek()) {
      if (head->time > t) {
        break;
      }
      Step();
    }
    if (now_ < t) {
      now_ = t;
    }
  }

  // Executes the single earliest event; returns false if none.
  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    const EventKey key = queue_.Pop();
    // Payloads sit at scattered slots; start loading the next one
    // while this one fires.
    if (const EventKey* next = queue_.Peek()) {
      slab_.Prefetch(next->slot());
    }
    now_ = key.time;
    ++events_executed_;
    slab_[key.slot()].Fire();
    slab_.Release(key.slot());
    return true;
  }

  bool empty() const { return queue_.empty(); }
  size_t queue_depth() const { return queue_.size(); }
  uint64_t events_executed() const { return events_executed_; }
  uint64_t events_scheduled() const { return events_scheduled_; }
  const QueueStats& queue_stats() const { return queue_.stats(); }

  // Folds the scheduler's deterministic counters into the calling
  // thread's metrics registry (docs/METRICS.md, sim.* family). Runs
  // automatically on destruction — app schedulers are shard-locals, so
  // the counts land in the shard registry and merge in shard order —
  // but benches may call it earlier to snapshot mid-run. Publishes
  // deltas since the previous call, so calling twice never
  // double-counts.
  void PublishMetrics() {
    obs::MetricsRegistry& reg = obs::Registry();
    const QueueStats& qs = queue_.stats();
    reg.GetCounter("sim.events_scheduled")
        .Add(events_scheduled_ - published_.scheduled);
    reg.GetCounter("sim.events_executed")
        .Add(events_executed_ - published_.executed);
    reg.GetCounter("sim.ladder_promotions")
        .Add(qs.promotions - published_.promotions);
    reg.GetCounter("sim.ladder_spills").Add(qs.spills - published_.spills);
    published_ = {events_scheduled_, events_executed_, qs.promotions,
                  qs.spills};
    // Peak depth is a high-water mark, not a flow: fold as a gauge
    // (gauges add across shards, giving the sum of per-shard peaks).
    obs::Gauge& peak = reg.GetGauge("sim.queue_peak_depth");
    int64_t depth = static_cast<int64_t>(qs.peak_depth);
    if (depth > last_peak_gauge_) {
      peak.Add(depth - last_peak_gauge_);
      last_peak_gauge_ = depth;
    }
  }

 private:
  struct Published {
    uint64_t scheduled = 0;
    uint64_t executed = 0;
    uint64_t promotions = 0;
    uint64_t spills = 0;
  };

  void PushEvent(SimTime t, uint32_t slot) {
    if (t < now_) {
      t = now_;
    }
    if (next_seq_ > EventKey::kMaxSeq) {
      std::fprintf(stderr, "sim: event sequence space exhausted\n");
      std::abort();
    }
    queue_.Push(EventKey::Make(t, next_seq_++, slot));
    ++events_scheduled_;
  }

  EventSlab slab_;     // payloads; unfired callables die with the slab
  LadderQueue queue_;  // their keys
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t events_scheduled_ = 0;
  Published published_;
  int64_t last_peak_gauge_ = 0;
};

// Awaitable that suspends the current coroutine for dt virtual ns.
// Usage: co_await Delay{sched, Micros(5)};
struct Delay {
  Scheduler& sched;
  SimTime dt;

  bool await_ready() const noexcept { return dt <= 0; }
  void await_suspend(std::coroutine_handle<> h) const { sched.ResumeAfter(dt, h); }
  void await_resume() const noexcept {}
};

}  // namespace whodunit::sim

#endif  // SRC_SIM_SCHEDULER_H_
