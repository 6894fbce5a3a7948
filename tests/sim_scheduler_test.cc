#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/heap_scheduler.h"
#include "src/sim/task.h"
#include "src/util/arena.h"
#include "src/util/rng.h"

namespace whodunit::sim {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SchedulerTest, TiesBreakFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler s;
  SimTime seen = -1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAt(50, [&] { seen = s.now(); });  // in the past
  });
  s.Run();
  EXPECT_EQ(seen, 100);
}

TEST(SchedulerTest, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      s.ScheduleAfter(1, chain);
    }
  };
  s.ScheduleAt(0, chain);
  s.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(SchedulerTest, RunUntilStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(200, [&] { ++fired; });
  s.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 100);
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.Step());
  s.ScheduleAt(1, [] {});
  EXPECT_TRUE(s.Step());
  EXPECT_FALSE(s.Step());
}

TEST(SchedulerTest, RunUntilIncludesEventsAtExactBoundary) {
  Scheduler s;
  int fired = 0;
  s.ScheduleAt(100, [&] { ++fired; });
  s.ScheduleAt(101, [&] { ++fired; });
  s.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 100);
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, NegativeScheduleAfterClampsToNow) {
  Scheduler s;
  SimTime seen = -1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAfter(-30, [&] { seen = s.now(); });
  });
  s.Run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(s.now(), 100);
}

TEST(SchedulerTest, FifoSurvivesSpillAndRungRefill) {
  // Far more events than the calendar's bottom tier holds, drawn from
  // a handful of timestamps so heavy tie groups are split across the
  // bottom/rung/top spill paths. The executed sequence must still be
  // the exact (time, insertion order) total order.
  Scheduler s;
  struct Rec {
    SimTime t;
    int i;
  };
  std::vector<Rec> order;
  util::Rng rng(7);
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    const auto t = static_cast<SimTime>(rng.NextBelow(16) * 1000);
    s.ScheduleAt(t, [&order, t, i] { order.push_back({t, i}); });
  }
  s.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  for (size_t k = 1; k < order.size(); ++k) {
    const bool in_order =
        order[k - 1].t < order[k].t ||
        (order[k - 1].t == order[k].t && order[k - 1].i < order[k].i);
    ASSERT_TRUE(in_order) << "at position " << k;
  }
  // The point of the test: the spill machinery actually engaged.
  EXPECT_GT(s.queue_stats().spills + s.queue_stats().promotions, 0u);
  EXPECT_EQ(s.queue_stats().peak_depth, static_cast<size_t>(kEvents));
}

// Runs an identical randomized workload — events rescheduling further
// events with heavy timestamp collisions — on the given scheduler and
// returns the execution order of event ids.
template <typename S>
std::vector<int> RandomWorkloadOrder(uint64_t seed) {
  S s;
  util::Rng rng(seed);
  std::vector<int> order;
  int next_id = 0;
  constexpr int kMaxEvents = 20000;
  std::function<void(int)> fire = [&](int id) {
    order.push_back(id);
    const uint64_t kids = rng.NextBelow(3);
    for (uint64_t k = 0; k < kids && next_id < kMaxEvents; ++k) {
      const int cid = next_id++;
      // Mix zero/near-tie deltas with far jumps so events cross every
      // tier of the calendar.
      const auto dt = static_cast<SimTime>(
          rng.NextBelow(4) == 0 ? rng.NextBelow(3) : rng.NextBelow(50000));
      s.ScheduleAfter(dt, [&fire, cid] { fire(cid); });
    }
  };
  while (next_id < 2000) {
    const int id = next_id++;
    const auto t = static_cast<SimTime>(rng.NextBelow(20000));
    s.ScheduleAt(t, [&fire, id] { fire(id); });
  }
  s.Run();
  return order;
}

// A hold workload around `depth` pending events, driven from outside
// the callbacks by a random mix of Step(), RunUntil() (which peeks the
// head) and ScheduleAt(now()) calls. Timestamps come from a coarse
// grid a third of the time, and a quarter of the successors land at
// the current instant, so large same-time tie groups cross every tier.
// Returns the fired (id, time) sequence and the clock after each
// RunUntil.
template <typename S>
std::vector<int64_t> HoldWorkloadTrace(size_t depth, uint64_t seed,
                                       uint64_t fires) {
  struct Ctx {
    S s;
    util::Rng rng;
    std::vector<int64_t> trace;
    size_t depth;
    int next_id = 0;
    explicit Ctx(uint64_t seed, size_t d) : rng(seed), depth(d) {}
    SimTime Gap() {
      const uint64_t kind = rng.NextBelow(12);
      if (kind < 3) return 0;                       // ScheduleAt(now)
      if (kind < 7) return static_cast<SimTime>(rng.NextBelow(64) * 1024);
      return static_cast<SimTime>(rng.NextBelow(65536));
    }
  };
  struct Fire {
    Ctx* c;
    int id;
    void operator()() const {
      c->trace.push_back(id);
      c->trace.push_back(c->s.now());
      // Keep the population near depth: 0, 1 or 2 successors.
      const uint64_t kids =
          c->s.queue_depth() + 1 < c->depth ? 1 + c->rng.NextBelow(2)
                                            : c->rng.NextBelow(2);
      for (uint64_t k = 0; k < kids; ++k) {
        c->s.ScheduleAfter(c->Gap(), Fire{c, c->next_id++});
      }
    }
  };
  Ctx c(seed, depth);
  for (size_t i = 0; i < depth; ++i) {
    c.s.ScheduleAt(c.Gap(), Fire{&c, c.next_id++});
  }
  while (c.trace.size() < 2 * fires && !c.s.empty()) {
    switch (c.rng.NextBelow(8)) {
      case 0:
        c.s.RunUntil(c.s.now() + static_cast<SimTime>(c.rng.NextBelow(4096)));
        c.trace.push_back(-1);
        c.trace.push_back(c.s.now());
        break;
      case 1:
        c.s.ScheduleAt(c.s.now(), Fire{&c, c.next_id++});
        break;
      default:
        for (int k = 0; k < 16; ++k) {
          c.s.Step();
        }
    }
  }
  return c.trace;
}

TEST(SchedulerTest, LadderMatchesHeapOnRandomWorkloads) {
  // Differential check: the calendar queue and the reference binary
  // heap must execute byte-identical event sequences, including events
  // scheduled from inside callbacks.
  for (const uint64_t seed : {1ULL, 42ULL, 1234ULL}) {
    const std::vector<int> ladder = RandomWorkloadOrder<Scheduler>(seed);
    const std::vector<int> heap = RandomWorkloadOrder<HeapScheduler>(seed);
    ASSERT_GE(ladder.size(), 2000u) << "seed " << seed;
    EXPECT_EQ(ladder, heap) << "seed " << seed;
  }
  // Hold workloads at depths from below the ladder's bottom cap to well
  // past one rung wheel, so every tier and reorganization path runs:
  // bottom spills, top seeding, bucket subdivision and refills.
  for (const size_t depth : {size_t{64}, size_t{1024}, size_t{16384},
                             size_t{1} << 17}) {
    const uint64_t fires = std::max<uint64_t>(20000, 2 * depth);
    const std::vector<int64_t> ladder =
        HoldWorkloadTrace<Scheduler>(depth, depth + 7, fires);
    const std::vector<int64_t> heap =
        HoldWorkloadTrace<HeapScheduler>(depth, depth + 7, fires);
    ASSERT_GE(ladder.size(), 2 * fires) << "depth " << depth;
    EXPECT_TRUE(ladder == heap) << "depth " << depth;
  }
}

TEST(LadderQueueTest, MatchesReferenceOrderUnderFuzz) {
  // The queue alone against a reference heap over the same keys:
  // random depths and time ranges (from all-ties to sparse), pushes at
  // or after the last popped time as the scheduler guarantees, and
  // Peek() between pops.
  auto later = [](const EventKey& a, const EventKey& b) {
    return EventBefore(b, a);
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    LadderQueue q;
    std::priority_queue<EventKey, std::vector<EventKey>, decltype(later)> ref(
        later);
    uint64_t seq = 0;
    SimTime now = 0;
    const uint64_t range = 1 + rng.NextBelow(uint64_t{1} << rng.NextBelow(20));
    const size_t depth = 1 + rng.NextBelow(3000);
    for (int op = 0; op < 50000; ++op) {
      if (ref.size() < depth && rng.NextBelow(2) == 0) {
        const SimTime t =
            now + static_cast<SimTime>(rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(range));
        const EventKey key = EventKey::Make(t, seq++, 0);
        q.Push(key);
        ref.push(key);
      } else if (!ref.empty()) {
        if (rng.NextBelow(3) == 0) {
          ASSERT_EQ(q.Peek()->tag, ref.top().tag) << "seed " << seed << " op " << op;
        }
        const EventKey got = q.Pop();
        ASSERT_EQ(got.tag, ref.top().tag) << "seed " << seed << " op " << op;
        ASSERT_EQ(got.time, ref.top().time) << "seed " << seed << " op " << op;
        ref.pop();
        now = got.time;
      }
      ASSERT_EQ(q.size(), ref.size());
    }
  }
}

// Counts every move and copy and remembers where it was built, so a
// firing callable can tell whether it was relocated after scheduling.
template <size_t kPad>
struct Pinned {
  struct Log {
    int moves = 0;
    int copies = 0;
    int relocated = 0;
    int fired = 0;
  };
  Scheduler* s;
  Log* log;
  int children;
  const Pinned* self = this;
  std::array<unsigned char, kPad> pad{};

  Pinned(Scheduler* sched, Log* l, int kids)
      : s(sched), log(l), children(kids) {}
  Pinned(Pinned&& o) noexcept : s(o.s), log(o.log), children(o.children) {
    ++log->moves;
  }
  Pinned(const Pinned& o) : s(o.s), log(o.log), children(o.children) {
    ++log->copies;
  }

  void operator()() const {
    // Scheduling from inside Fire() grows the slab by many chunks
    // while this event is still running in it.
    for (int i = 0; i < children; ++i) {
      s->ScheduleAfter(i % 7, Pinned(s, log, 0));
    }
    if (self != this) {
      ++log->relocated;
    }
    ++log->fired;
  }
};

template <size_t kPad>
void ExpectNeverMoved() {
  using P = Pinned<kPad>;
  typename P::Log log;
  Scheduler s;
  constexpr int kChildren = 5000;
  s.ScheduleAt(1, P(&s, &log, kChildren));
  s.ScheduleAt(1, P(&s, &log, kChildren));
  // One move per event: from the argument into its slab slot.
  EXPECT_EQ(log.moves, 2);
  s.Run();
  EXPECT_EQ(log.fired, 2 + 2 * kChildren);
  EXPECT_EQ(log.moves, 2 + 2 * kChildren);
  EXPECT_EQ(log.copies, 0);
  EXPECT_EQ(log.relocated, 0);
}

TEST(SchedulerTest, ScheduledCallablesAreNeverMoved) {
  ExpectNeverMoved<0>();    // inline in the event
  ExpectNeverMoved<128>();  // overflow block from the arena pool
}

TEST(SchedulerTest, HoldModelHeapStaysFlat) {
  // A calendar at a steady depth must not grow: 2M steps of a
  // depth-1000 hold model may add under 1 MB of live heap once the
  // calendar has settled.
  struct Hold {
    Scheduler* s;
    util::Rng* rng;
    void operator()() const {
      s->ScheduleAfter(static_cast<SimTime>(1 + rng->NextBelow(100000)),
                       Hold{s, rng});
    }
  };
  Scheduler s;
  util::Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    s.ScheduleAt(static_cast<SimTime>(rng.NextBelow(100000)), Hold{&s, &rng});
  }
  for (int i = 0; i < 100000; ++i) {
    s.Step();
  }
  const uint64_t before = util::ApproxHeapBytes();
  for (int i = 0; i < 2000000; ++i) {
    s.Step();
  }
  const uint64_t after = util::ApproxHeapBytes();
  EXPECT_LT(after, before + (uint64_t{1} << 20))
      << "heap grew " << (after - before) << " bytes";
  EXPECT_EQ(s.queue_depth(), 1000u);
}

Process CountTo(Scheduler& sched, int n, int& counter) {
  for (int i = 0; i < n; ++i) {
    co_await Delay{sched, 10};
    ++counter;
  }
}

TEST(ProcessTest, DelayAdvancesVirtualTime) {
  Scheduler s;
  int counter = 0;
  Spawn(s, CountTo(s, 5, counter));
  s.Run();
  EXPECT_EQ(counter, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(ProcessTest, ConcurrentProcessesInterleave) {
  Scheduler s;
  int a = 0, b = 0;
  Spawn(s, CountTo(s, 3, a));
  Spawn(s, CountTo(s, 7, b));
  s.Run();
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 7);
  EXPECT_EQ(s.now(), 70);
}

TEST(ProcessTest, SpawnAfterDelaysStart) {
  Scheduler s;
  int counter = 0;
  SpawnAfter(s, 100, CountTo(s, 1, counter));
  s.RunUntil(99);
  EXPECT_EQ(counter, 0);
  s.Run();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(s.now(), 110);
}

Task<int> AddAfter(Scheduler& sched, int x, int y) {
  co_await Delay{sched, 5};
  co_return x + y;
}

Process UseTask(Scheduler& sched, int& out) {
  out = co_await AddAfter(sched, 2, 3);
}

TEST(TaskTest, NestedTaskReturnsValue) {
  Scheduler s;
  int out = 0;
  Spawn(s, UseTask(s, out));
  s.Run();
  EXPECT_EQ(out, 5);
  EXPECT_EQ(s.now(), 5);
}

Task<void> Inner(Scheduler& sched, std::vector<int>& log) {
  log.push_back(1);
  co_await Delay{sched, 1};
  log.push_back(2);
}

Process Outer(Scheduler& sched, std::vector<int>& log) {
  co_await Inner(sched, log);
  log.push_back(3);
}

TEST(TaskTest, VoidTaskSequencing) {
  Scheduler s;
  std::vector<int> log;
  Spawn(s, Outer(s, log));
  s.Run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

Task<int> DeepChain(Scheduler& sched, int depth) {
  if (depth == 0) {
    co_return 0;
  }
  int below = co_await DeepChain(sched, depth - 1);
  co_return below + 1;
}

Process RunDeep(Scheduler& sched, int& out) { out = co_await DeepChain(sched, 5000); }

TEST(TaskTest, DeepChainsDoNotOverflowStack) {
  Scheduler s;
  int out = 0;
  Spawn(s, RunDeep(s, out));
  s.Run();
  EXPECT_EQ(out, 5000);
}

}  // namespace
}  // namespace whodunit::sim
