#include "src/db/database.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/crosstalk/crosstalk.h"
#include "src/sim/task.h"
#include "src/workload/tpcw.h"

namespace whodunit::db {
namespace {

using Kind = QueryStep::Kind;

struct Fixture {
  sim::Scheduler sched;
  sim::CpuResource cpu{sched, 1, "db_cpu"};
  Database database{sched, cpu, CostModel{}};
};

sim::Process RunQuery(Fixture& f, Query q, uint64_t tag, sim::SimTime* cost_out = nullptr) {
  sim::SimTime cost = co_await f.database.Execute(q, tag);
  if (cost_out != nullptr) {
    *cost_out = cost;
  }
}

TEST(DatabaseTest, EstimateCostComposesSteps) {
  Fixture f;
  const TableId t = f.database.CreateTable("t", 1000, LockGranularity::kTableLocks).id();
  const QueryPlan q{"q", {{Kind::kScan, t, 100}, {Kind::kPointRead, t, 1}}};
  const CostModel& c = f.database.costs();
  EXPECT_EQ(f.database.EstimateCost(q),
            c.fixed_per_query + 100 * c.per_row_scan + c.per_point_read);
}

TEST(DatabaseTest, SortCostSuperlinear) {
  Fixture f;
  const QueryPlan small{"s", {{Kind::kSort, kNoTable, 1000}}};
  const QueryPlan large{"l", {{Kind::kSort, kNoTable, 10000}}};
  const auto cs = f.database.EstimateCost(small) - f.database.costs().fixed_per_query;
  const auto cl = f.database.EstimateCost(large) - f.database.costs().fixed_per_query;
  EXPECT_GT(cl, 10 * cs);  // n log n growth
}

TEST(DatabaseTest, ExecuteConsumesCpuTime) {
  Fixture f;
  const TableId t = f.database.CreateTable("t", 1000, LockGranularity::kTableLocks).id();
  const QueryPlan q{"q", {{Kind::kScan, t, 1000}}};
  sim::SimTime cost = 0;
  sim::Spawn(f.sched, RunQuery(f, Query{&q}, 1, &cost));
  f.sched.Run();
  EXPECT_EQ(cost, f.database.EstimateCost(q));
  EXPECT_EQ(f.cpu.busy_time(), cost);
  // Wall time = disk wait (while holding locks) + CPU service.
  EXPECT_EQ(f.sched.now(), cost + f.database.EstimateDiskTime(q));
  EXPECT_EQ(f.database.queries_executed(), 1u);
}

struct InflateBy500 : ExecHooks {
  sim::SimTime Charge(sim::SimTime c) override { return c + 500; }
};

TEST(DatabaseTest, ChargeHookInflatesConsumption) {
  Fixture f;
  const TableId t = f.database.CreateTable("t", 1000, LockGranularity::kTableLocks).id();
  const QueryPlan q{"q", {{Kind::kScan, t, 1000}}};
  sim::Spawn(f.sched, [](Fixture& fx, Query qq) -> sim::Process {
    InflateBy500 hooks;
    co_await fx.database.Execute(qq, 1, &hooks);
  }(f, Query{&q}));
  f.sched.Run();
  // The hook runs once for the per-query fixed cost and once per step:
  // two inflations of 500 for this one-step plan.
  EXPECT_EQ(f.cpu.busy_time(), f.database.EstimateCost(q) + 2 * 500);
}

TEST(DatabaseTest, MyisamReadersShareWritersExclude) {
  Fixture f;
  const TableId item = f.database.CreateTable("item", 1000, LockGranularity::kTableLocks).id();
  crosstalk::CrosstalkRecorder rec;
  f.database.SetLockObserver(&rec);

  const QueryPlan read_plan{"read", {{Kind::kScan, item, 10000}}};    // 9 ms
  const QueryPlan write_plan{"write", {{Kind::kUpdateRow, item, 1}}};  // short
  const Query read{&read_plan};
  const Query write{&write_plan, {5}};

  // Two readers start together (share); the writer arrives during.
  sim::Spawn(f.sched, RunQuery(f, read, /*tag=*/1));
  sim::Spawn(f.sched, RunQuery(f, read, /*tag=*/2));
  sim::SpawnAfter(f.sched, sim::Millis(1), RunQuery(f, write, /*tag=*/3));
  f.sched.Run();

  // The writer waited for both readers (blame recorded), readers did
  // not wait for each other.
  EXPECT_EQ(rec.WaitCount(3), 1u);
  EXPECT_GT(rec.MeanWait(3), 0.0);
  EXPECT_EQ(rec.WaitCount(1), 0u);
  EXPECT_EQ(rec.WaitCount(2), 0u);
}

TEST(DatabaseTest, InnodbReadersDontBlockBehindWriter) {
  Fixture f;
  const TableId item = f.database.CreateTable("item", 1000, LockGranularity::kRowLocks).id();
  crosstalk::CrosstalkRecorder rec;
  f.database.SetLockObserver(&rec);

  const QueryPlan write_plan{"write", {{Kind::kScan, item, 50000}, {Kind::kUpdateRow, item, 1}}};
  const QueryPlan read_plan{"read", {{Kind::kScan, item, 10000}}};
  const Query write{&write_plan, {0, 5}};
  const Query read{&read_plan};

  sim::Spawn(f.sched, RunQuery(f, write, 1));
  sim::SpawnAfter(f.sched, sim::Millis(1), RunQuery(f, read, 2));
  f.sched.Run();

  // MVCC: the reader acquired no lock at all.
  EXPECT_EQ(rec.WaitCount(2), 0u);
}

TEST(DatabaseTest, InnodbWritersOnSameRowStripeConflict) {
  Fixture f;
  const TableId item = f.database.CreateTable("item", 1000, LockGranularity::kRowLocks).id();
  crosstalk::CrosstalkRecorder rec;
  f.database.SetLockObserver(&rec);

  // Same row -> same stripe -> serialized.
  const QueryPlan w1{"w1", {{Kind::kScan, item, 20000}, {Kind::kUpdateRow, item, 1}}};
  const QueryPlan w2{"w2", {{Kind::kUpdateRow, item, 1}}};
  sim::Spawn(f.sched, RunQuery(f, Query{&w1, {0, 7}}, 1));
  sim::SpawnAfter(f.sched, sim::Micros(100), RunQuery(f, Query{&w2, {7}}, 2));
  f.sched.Run();
  EXPECT_EQ(rec.WaitCount(2), 1u);
}

TEST(DatabaseTest, MultiTableLocksAcquiredInNameOrder) {
  // Two queries touching the same two tables in opposite step order
  // must not deadlock (locks are acquired in canonical order).
  Fixture f;
  // Created in reverse name order, so id order is not name order.
  const TableId b = f.database.CreateTable("b", 100, LockGranularity::kTableLocks).id();
  const TableId a = f.database.CreateTable("a", 100, LockGranularity::kTableLocks).id();
  const QueryPlan q1{"q1", {{Kind::kUpdateRow, a, 1}, {Kind::kUpdateRow, b, 1}}};
  const QueryPlan q2{"q2", {{Kind::kUpdateRow, b, 1}, {Kind::kUpdateRow, a, 1}}};
  int done = 0;
  auto run = [&](Query q, uint64_t tag) -> sim::Process {
    co_await f.database.Execute(q, tag);
    ++done;
  };
  sim::Spawn(f.sched, run(Query{&q1}, 1));
  sim::Spawn(f.sched, run(Query{&q2}, 2));
  f.sched.Run();
  EXPECT_EQ(done, 2);
  EXPECT_FALSE(f.database.table("a").table_lock().held());
  EXPECT_FALSE(f.database.table("b").table_lock().held());
}

TEST(DatabaseTest, GranularityCanBeSwitched) {
  Fixture f;
  Table& t = f.database.CreateTable("item", 100, LockGranularity::kTableLocks);
  EXPECT_EQ(t.granularity(), LockGranularity::kTableLocks);
  t.set_granularity(LockGranularity::kRowLocks);
  EXPECT_EQ(f.database.table("item").granularity(), LockGranularity::kRowLocks);
}

// Records the name of every lock as it is granted.
class AcquireOrder : public sim::LockObserver {
 public:
  void OnAcquired(const sim::SimMutex& lock, uint64_t, uint64_t, sim::SimTime) override {
    names += (names.empty() ? "" : ",") + lock.name();
  }
  void OnReleased(const sim::SimMutex&, uint64_t) override {}

  std::string names;
};

struct PlanGolden {
  sim::SimTime cost;
  sim::SimTime disk;
  const char* table_locks_order;  // `item` under MyISAM table locks
  const char* row_locks_order;    // `item` under InnoDB row locks
};

// Recorded from the string-keyed planner these static plans replaced:
// each interaction's request drawn from Rng(1000 + type), executed
// alone on a fresh TPC-W database.
constexpr PlanGolden kTpcwGolden[workload::kTpcwTransactionCount] = {
    {461245937, 96000000, "item.table_lock,order_line.table_lock",
     "item.row_stripe_7,order_line.table_lock"},  // AdminConfirm
    {475000, 0, "author.table_lock,item.table_lock", "author.table_lock"},  // AdminRequest
    {243929048, 60000000, "item.table_lock,order_line.table_lock",
     "order_line.table_lock"},  // BestSellers
    {2285000, 480000,
     "cc_xacts.table_lock,order_line.table_lock,orders.table_lock,shopping_cart_line.table_lock",
     "cc_xacts.table_lock,order_line.table_lock,orders.table_lock,"
     "shopping_cart_line.table_lock"},  // BuyConfirm
    {1275000, 480000, "address.table_lock,customer.table_lock,shopping_cart_line.table_lock",
     "address.table_lock,customer.table_lock,shopping_cart_line.table_lock"},  // BuyRequest
    {305000, 0, "customer.table_lock", "customer.table_lock"},  // CustomerRegistration
    {1005000, 420000, "customer.table_lock,item.table_lock", "customer.table_lock"},  // Home
    {14585145, 5400000, "item.table_lock", ""},                                     // NewProducts
    {1205000, 540000, "order_line.table_lock,orders.table_lock",
     "order_line.table_lock,orders.table_lock"},                                // OrderDisplay
    {305000, 0, "customer.table_lock", "customer.table_lock"},                  // OrderInquiry
    {475000, 0, "author.table_lock,item.table_lock", "author.table_lock"},      // ProductDetail
    {635000, 300000, "item.table_lock", ""},                                    // SearchRequest
    {190956411, 45000000, "author.table_lock,item.table_lock", "author.table_lock"},  // SearchResult
    {1205000, 540000, "item.table_lock,shopping_cart_line.table_lock",
     "shopping_cart_line.table_lock"},  // ShoppingCart
};

TEST(DatabaseTest, TpcwPlansMatchGolden) {
  for (const LockGranularity g : {LockGranularity::kTableLocks, LockGranularity::kRowLocks}) {
    for (int i = 0; i < workload::kTpcwTransactionCount; ++i) {
      const auto type = static_cast<workload::TpcwTransaction>(i);
      const PlanGolden& want = kTpcwGolden[i];
      Fixture f;
      workload::CreateTpcwTables(f.database, g);
      AcquireOrder order;
      f.database.SetLockObserver(&order);
      util::Rng rng(1000 + static_cast<uint64_t>(i));
      const Query q = workload::TpcwQuery(type, rng);
      sim::Spawn(f.sched, RunQuery(f, q, 1));
      f.sched.Run();
      SCOPED_TRACE(workload::TpcwName(type));
      EXPECT_EQ(f.database.EstimateCost(*q.plan), want.cost);
      EXPECT_EQ(f.database.EstimateDiskTime(*q.plan), want.disk);
      EXPECT_EQ(order.names, g == LockGranularity::kTableLocks ? want.table_locks_order
                                                               : want.row_locks_order);
    }
  }
}

}  // namespace
}  // namespace whodunit::db
