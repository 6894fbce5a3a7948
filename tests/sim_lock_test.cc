#include "src/sim/lock.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/task.h"
#include "tests/alloc_counter.h"

namespace whodunit::sim {
namespace {

struct Recorded {
  uint64_t waiter;
  uint64_t blocker;
  SimTime wait;
};

class RecordingObserver : public LockObserver {
 public:
  void OnAcquired(const SimMutex&, uint64_t waiter_tag, uint64_t blocking_tag,
                  SimTime wait) override {
    acquired.push_back({waiter_tag, blocking_tag, wait});
  }
  void OnReleased(const SimMutex&, uint64_t holder_tag) override {
    released.push_back(holder_tag);
  }

  std::vector<Recorded> acquired;
  std::vector<uint64_t> released;
};

Process HoldFor(Scheduler& sched, SimMutex& m, uint64_t tag, SimTime hold) {
  co_await m.Acquire(tag);
  co_await Delay{sched, hold};
  m.Release(tag);
}

TEST(SimMutexTest, UncontendedAcquireIsImmediate) {
  Scheduler s;
  SimMutex m(s);
  RecordingObserver obs;
  m.set_observer(&obs);
  Spawn(s, HoldFor(s, m, 1, 10));
  s.Run();
  ASSERT_EQ(obs.acquired.size(), 1u);
  EXPECT_EQ(obs.acquired[0].wait, 0);
  EXPECT_EQ(obs.acquired[0].blocker, LockObserver::kNoTag);
  EXPECT_FALSE(m.held());
  EXPECT_EQ(m.acquire_count(), 1u);
  EXPECT_EQ(m.contended_count(), 0u);
}

TEST(SimMutexTest, ExclusiveContentionWaitsAndRecordsBlocker) {
  Scheduler s;
  SimMutex m(s);
  RecordingObserver obs;
  m.set_observer(&obs);
  Spawn(s, HoldFor(s, m, 100, 50));
  SpawnAfter(s, 10, HoldFor(s, m, 200, 5));
  s.Run();
  ASSERT_EQ(obs.acquired.size(), 2u);
  EXPECT_EQ(obs.acquired[1].waiter, 200u);
  EXPECT_EQ(obs.acquired[1].blocker, 100u);
  EXPECT_EQ(obs.acquired[1].wait, 40);  // waited from t=10 to t=50
  EXPECT_EQ(m.total_wait(), 40);
  EXPECT_EQ(m.contended_count(), 1u);
}

TEST(SimMutexTest, FifoOrderingAmongWaiters) {
  Scheduler s;
  SimMutex m(s);
  RecordingObserver obs;
  m.set_observer(&obs);
  Spawn(s, HoldFor(s, m, 1, 100));
  SpawnAfter(s, 10, HoldFor(s, m, 2, 10));
  SpawnAfter(s, 20, HoldFor(s, m, 3, 10));
  SpawnAfter(s, 30, HoldFor(s, m, 4, 10));
  s.Run();
  ASSERT_EQ(obs.acquired.size(), 4u);
  EXPECT_EQ(obs.acquired[1].waiter, 2u);
  EXPECT_EQ(obs.acquired[2].waiter, 3u);
  EXPECT_EQ(obs.acquired[3].waiter, 4u);
}

Process HoldShared(Scheduler& sched, SimMutex& m, uint64_t tag, SimTime hold,
                   std::vector<SimTime>* acquire_times) {
  co_await m.Acquire(tag, LockMode::kShared);
  acquire_times->push_back(sched.now());
  co_await Delay{sched, hold};
  m.Release(tag);
}

TEST(SimMutexTest, SharedHoldersOverlap) {
  Scheduler s;
  SimMutex m(s);
  std::vector<SimTime> times;
  Spawn(s, HoldShared(s, m, 1, 100, &times));
  SpawnAfter(s, 10, HoldShared(s, m, 2, 100, &times));
  s.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], 10);  // no waiting: both shared
  EXPECT_EQ(s.now(), 110);
}

TEST(SimMutexTest, ExclusiveWaitsForAllSharedHolders) {
  Scheduler s;
  SimMutex m(s);
  RecordingObserver obs;
  m.set_observer(&obs);
  std::vector<SimTime> times;
  Spawn(s, HoldShared(s, m, 1, 50, &times));
  SpawnAfter(s, 5, HoldShared(s, m, 2, 100, &times));
  SpawnAfter(s, 10, HoldFor(s, m, 3, 10));
  s.Run();
  // Exclusive tag 3 must wait until t=105 when the second reader exits.
  ASSERT_EQ(obs.acquired.size(), 3u);
  EXPECT_EQ(obs.acquired[2].waiter, 3u);
  EXPECT_EQ(obs.acquired[2].wait, 95);
}

TEST(SimMutexTest, SharedBehindExclusiveDoesNotOvertake) {
  Scheduler s;
  SimMutex m(s);
  RecordingObserver obs;
  m.set_observer(&obs);
  std::vector<SimTime> times;
  Spawn(s, HoldShared(s, m, 1, 100, &times));   // reader holds 0..100
  SpawnAfter(s, 10, HoldFor(s, m, 2, 10));      // writer queued at 10
  SpawnAfter(s, 20, HoldShared(s, m, 3, 10, &times));  // reader queued at 20
  s.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 0);
  // FIFO: the writer runs 100..110, the second reader starts at 110.
  EXPECT_EQ(times[1], 110);
}

TEST(SimMutexTest, SharedBatchGrantedTogether) {
  Scheduler s;
  SimMutex m(s);
  std::vector<SimTime> times;
  Spawn(s, HoldFor(s, m, 1, 50));
  SpawnAfter(s, 10, HoldShared(s, m, 2, 20, &times));
  SpawnAfter(s, 11, HoldShared(s, m, 3, 20, &times));
  s.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 50);
  EXPECT_EQ(times[1], 50);  // both readers granted together at release
}

// Resume order: each holder logs its tag the moment its acquire
// returns.
Process LogAcquire(Scheduler& sched, SimMutex& m, uint64_t tag, LockMode mode, SimTime hold,
                   std::vector<uint64_t>* resumed) {
  co_await m.Acquire(tag, mode);
  resumed->push_back(tag);
  co_await Delay{sched, hold};
  m.Release(tag);
}

TEST(SimMutexTest, SharedBatchGrantsInFifoOrder) {
  Scheduler s;
  SimMutex m(s);
  RecordingObserver obs;
  m.set_observer(&obs);
  std::vector<uint64_t> resumed;
  Spawn(s, LogAcquire(s, m, 1, LockMode::kExclusive, 50, &resumed));
  SpawnAfter(s, 10, LogAcquire(s, m, 2, LockMode::kShared, 20, &resumed));
  SpawnAfter(s, 11, LogAcquire(s, m, 3, LockMode::kShared, 30, &resumed));
  SpawnAfter(s, 12, LogAcquire(s, m, 4, LockMode::kShared, 10, &resumed));
  SpawnAfter(s, 13, LogAcquire(s, m, 5, LockMode::kExclusive, 5, &resumed));
  SpawnAfter(s, 14, LogAcquire(s, m, 6, LockMode::kShared, 5, &resumed));
  s.Run();
  // The batch 2,3,4 is granted at t=50 in queue order; the writer 5
  // waits for the batch's last reader (t=80); reader 6 may not join the
  // earlier batch past the queued writer.
  ASSERT_EQ(obs.acquired.size(), 6u);
  const std::vector<uint64_t> fifo = {1, 2, 3, 4, 5, 6};
  std::vector<uint64_t> observed;
  for (const Recorded& r : obs.acquired) {
    observed.push_back(r.waiter);
  }
  EXPECT_EQ(observed, fifo);
  EXPECT_EQ(resumed, fifo);
  EXPECT_EQ(obs.acquired[1].wait, 40);
  EXPECT_EQ(obs.acquired[2].wait, 39);
  EXPECT_EQ(obs.acquired[3].wait, 38);
  EXPECT_EQ(obs.acquired[4].wait, 80 - 13);
  EXPECT_EQ(obs.acquired[5].wait, 85 - 14);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(obs.acquired[i].blocker, 1u);
  }
  EXPECT_EQ(obs.released, (std::vector<uint64_t>{1, 4, 2, 3, 5, 6}));
  EXPECT_EQ(m.queue_length(), 0u);
}

// Contends until `until`: a mix of exclusive and shared holders, so
// releases grant both single writers and shared batches.
Process Contend(Scheduler& sched, SimMutex& m, uint64_t tag, SimTime until, uint64_t* grants) {
  const LockMode mode = tag % 3 == 0 ? LockMode::kExclusive : LockMode::kShared;
  while (sched.now() < until) {
    co_await m.Acquire(tag, mode);
    ++*grants;
    co_await Delay{sched, static_cast<SimTime>(5 + tag)};
    m.Release(tag);
    co_await Delay{sched, static_cast<SimTime>(tag % 4)};
  }
}

TEST(SimMutexTest, WarmContendedLoopDoesNotAllocate) {
  Scheduler s;
  SimMutex m(s);
  uint64_t grants = 0;
  for (uint64_t tag = 0; tag < 12; ++tag) {
    Spawn(s, Contend(s, m, tag, /*until=*/400000, &grants));
  }
  // Warm up: queues, slabs and the calendar reach their high-water marks.
  s.RunUntil(100000);
  const uint64_t warm_grants = grants;
  const uint64_t before = testing::AllocCount();
  s.RunUntil(400000);
  EXPECT_EQ(testing::AllocCount() - before, 0u);
  EXPECT_GT(grants - warm_grants, 10000u);
  EXPECT_GT(m.contended_count(), 10000u);
  s.Run();  // every contender leaves its loop
  EXPECT_FALSE(m.held());
}

Process ScopedUser(Scheduler& sched, SimMutex& m, uint64_t tag, SimTime hold) {
  LockGuard g = co_await m.AcquireScoped(tag);
  co_await Delay{sched, hold};
  // g releases on scope exit
}

TEST(SimMutexTest, LockGuardReleasesOnScopeExit) {
  Scheduler s;
  SimMutex m(s);
  Spawn(s, ScopedUser(s, m, 1, 25));
  SpawnAfter(s, 5, ScopedUser(s, m, 2, 25));
  s.Run();
  EXPECT_FALSE(m.held());
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(m.acquire_count(), 2u);
}

TEST(SimMutexTest, DistinctLocksHaveDistinctIds) {
  Scheduler s;
  SimMutex a(s, "a"), b(s, "b");
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.name(), "a");
}

}  // namespace
}  // namespace whodunit::sim
