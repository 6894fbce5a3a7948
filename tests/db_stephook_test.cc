// Per-step execution hooks and disk-time accounting in MiniDB.
#include <gtest/gtest.h>

#include <vector>

#include "src/db/database.h"
#include "src/sim/task.h"

namespace whodunit::db {
namespace {

using Kind = QueryStep::Kind;

struct Fixture {
  sim::Scheduler sched;
  sim::CpuResource cpu{sched, 1};
  Database database{sched, cpu, CostModel{}};
};

// Logs every step the query runs, charging raw costs.
struct StepLog : ExecHooks {
  sim::SimTime ChargeStep(const QueryStep& step, sim::SimTime c) override {
    seen.emplace_back(step.kind, c);
    return c;
  }
  std::vector<std::pair<Kind, sim::SimTime>> seen;
};

TEST(DbStepHookTest, HookSeesEveryStepWithItsCost) {
  Fixture f;
  const TableId t = f.database.CreateTable("t", 100, LockGranularity::kTableLocks).id();
  const QueryPlan q{"q",
                    {{Kind::kScan, t, 100},
                     {Kind::kSort, kNoTable, 50},
                     {Kind::kUpdateRow, t, 1}}};
  StepLog log;
  sim::Spawn(f.sched, [](Fixture& fx, Query qq, StepLog& hooks) -> sim::Process {
    co_await fx.database.Execute(qq, 1, &hooks);
  }(f, Query{&q, {0, 0, 3}}, log));
  f.sched.Run();
  const auto& seen = log.seen;
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, Kind::kScan);
  EXPECT_EQ(seen[0].second, f.database.StepCost(q.steps()[0]));
  EXPECT_EQ(seen[1].first, Kind::kSort);
  EXPECT_EQ(seen[2].first, Kind::kUpdateRow);
}

struct DoubleSteps : ExecHooks {
  sim::SimTime ChargeStep(const QueryStep&, sim::SimTime c) override { return c * 2; }
};

TEST(DbStepHookTest, HookControlsConsumedCost) {
  Fixture f;
  const TableId t = f.database.CreateTable("t", 100, LockGranularity::kTableLocks).id();
  const QueryPlan q{"q", {{Kind::kScan, t, 1000}}};
  sim::Spawn(f.sched, [](Fixture& fx, Query qq) -> sim::Process {
    DoubleSteps hooks;
    co_await fx.database.Execute(qq, 1, &hooks);
  }(f, Query{&q}));
  f.sched.Run();
  // Fixed cost unhooked + doubled step cost.
  EXPECT_EQ(f.cpu.busy_time(),
            f.database.costs().fixed_per_query + 2 * f.database.StepCost(q.steps()[0]));
}

TEST(DbStepHookTest, StepCostsSumToEstimate) {
  Fixture f;
  const TableId t = 0;
  const QueryPlan q{"q",
                    {{Kind::kScan, t, 123},
                     {Kind::kSort, kNoTable, 77},
                     {Kind::kTempTable, kNoTable, 10},
                     {Kind::kPointRead, t, 1},
                     {Kind::kUpdateRow, t, 1}}};
  sim::SimTime sum = f.database.costs().fixed_per_query;
  for (const QueryStep& s : q.steps()) {
    sum += f.database.StepCost(s);
  }
  EXPECT_EQ(sum, f.database.EstimateCost(q));
}

TEST(DbStepHookTest, DiskTimeOnlyFromScans) {
  Fixture f;
  const TableId t = 0;
  const QueryPlan scan_heavy{"a", {{Kind::kScan, t, 10000}, {Kind::kSort, kNoTable, 10000}}};
  const QueryPlan cpu_only{"b", {{Kind::kSort, kNoTable, 10000}, {Kind::kPointRead, t, 1}}};
  EXPECT_EQ(f.database.EstimateDiskTime(scan_heavy),
            10000 * f.database.costs().per_row_disk);
  EXPECT_EQ(f.database.EstimateDiskTime(cpu_only), 0);
}

}  // namespace
}  // namespace whodunit::db
