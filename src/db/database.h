// MiniDB: the database substrate standing in for MySQL 4.0.25.
//
// The reproduced experiments need exactly three things from the
// database (DESIGN.md §2):
//   * a query cost model (scans, sorts, temp tables, point ops) that
//     charges a CPU resource in virtual time;
//   * MyISAM-style table locking vs InnoDB-style row locking — the
//     mechanism behind the paper's Figure 11 optimization (converting
//     the `item` table to InnoDB cuts AdminConfirm's crosstalk);
//   * lock instrumentation so transaction crosstalk (§6) can be
//     attributed to (waiter, holder) transaction-type pairs.
//
// Locking model:
//   kTableLocks (MyISAM): readers take the table lock shared, writers
//     take it exclusive.
//   kRowLocks (InnoDB): readers run lock-free (MVCC consistent reads),
//     writers lock only a row-hash stripe of the table.
#ifndef SRC_DB_DATABASE_H_
#define SRC_DB_DATABASE_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/lock.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/util/rng.h"

namespace whodunit::db {

enum class LockGranularity {
  kTableLocks,  // MyISAM
  kRowLocks,    // InnoDB
};

// A table's dense id: the order of its Database::CreateTable call.
using TableId = uint8_t;
// The table of a pure CPU step (sort / temp table).
inline constexpr TableId kNoTable = 0xFF;

class Table {
 public:
  Table(sim::Scheduler& sched, TableId id, std::string name, uint64_t rows,
        LockGranularity granularity, int row_stripes = 16);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint64_t rows() const { return rows_; }
  LockGranularity granularity() const { return granularity_; }
  void set_granularity(LockGranularity g) { granularity_ = g; }

  sim::SimMutex& table_lock() { return *table_lock_; }
  sim::SimMutex& row_lock(uint64_t row) { return *row_stripes_[row % row_stripes_.size()]; }

  void SetLockObserver(sim::LockObserver* observer);

 private:
  TableId id_;
  std::string name_;
  uint64_t rows_;
  LockGranularity granularity_;
  std::unique_ptr<sim::SimMutex> table_lock_;
  std::vector<std::unique_ptr<sim::SimMutex>> row_stripes_;
};

// One step of a query plan.
struct QueryStep {
  enum class Kind {
    kScan,       // read rows_touched rows of `table` (shared access)
    kSort,       // sort rows_touched records (CPU only, no new locks)
    kTempTable,  // materialize rows_touched rows (CPU only)
    kPointRead,  // read one row (shared access)
    kUpdateRow,  // write one row (exclusive access on table or row)
  };
  Kind kind;
  TableId table = kNoTable;
  uint64_t rows_touched = 1;
  // kPointRead / kUpdateRow: each execution touches one row drawn
  // uniformly from [0, row_domain) by QueryPlan::Bind; 0 pins row 0.
  uint64_t row_domain = 0;
};

inline constexpr size_t kMaxPlanSteps = 6;

class QueryPlan;

// One execution of a plan: the plan and the row each of its point
// reads and updates touches. Trivially copyable, so a request message
// carries it by value without touching the heap.
struct Query {
  const QueryPlan* plan = nullptr;
  // Indexed by step; steps that touch no single row ignore theirs.
  std::array<uint32_t, kMaxPlanSteps> rows{};
};
static_assert(std::is_trivially_copyable_v<Query>);

// A query's static plan: its name and steps, built once and shared by
// every execution.
class QueryPlan {
 public:
  constexpr QueryPlan(std::string_view name, std::initializer_list<QueryStep> steps)
      : name_(name), count_(steps.size()) {
    assert(steps.size() <= kMaxPlanSteps && "plan has too many steps");
    size_t i = 0;
    for (const QueryStep& step : steps) {
      steps_[i++] = step;
      rows_touched_ += step.rows_touched;
    }
  }

  std::string_view name() const { return name_; }
  std::span<const QueryStep> steps() const { return {steps_.data(), count_}; }
  // Sum of rows_touched over the steps.
  uint64_t rows_touched() const { return rows_touched_; }

  // An execution of this plan, drawing each row-domain step's row
  // from `rng` in step order.
  Query Bind(util::Rng& rng) const;

 private:
  std::string_view name_;
  std::array<QueryStep, kMaxPlanSteps> steps_{};
  size_t count_ = 0;
  uint64_t rows_touched_ = 0;
};

// Callbacks of one Database::Execute. The defaults charge raw costs;
// an override lives in the caller's coroutine frame, so binding the
// hooks never allocates.
class ExecHooks {
 public:
  virtual ~ExecHooks() = default;
  // Maps a raw CPU cost to the cost actually consumed (the profiler's
  // overhead hook). The per-query fixed cost always goes through here.
  virtual sim::SimTime Charge(sim::SimTime raw) { return raw; }
  // Invoked once per plan step with the step and its raw cost; returns
  // the cost to consume (Charge unless overridden). Lets the profiler
  // attribute CPU to per-step call-path frames (row_scan,
  // sort_records, ...) — the paper's §1 example of blaming the
  // database sort routine.
  virtual sim::SimTime ChargeStep(const QueryStep& step, sim::SimTime raw) {
    (void)step;
    return Charge(raw);
  }
  // Invoked with the virtual time the plan spent blocked acquiring its
  // lock set (only when > 0) — the kLockWait attribution feed
  // (docs/OBSERVABILITY.md).
  virtual void LockWait(sim::SimTime wait) { (void)wait; }
};

// Cost model constants (per step kind); see workload/calibration.h for
// the calibrated values used in the experiments.
struct CostModel {
  sim::SimTime per_row_scan = sim::Nanos(1000);
  sim::SimTime per_row_sort = sim::Nanos(2800);
  sim::SimTime per_row_temp = sim::Nanos(1700);
  sim::SimTime per_point_read = sim::Micros(170);
  sim::SimTime per_row_update = sim::Micros(450);
  sim::SimTime fixed_per_query = sim::Micros(135);
  // Disk time per scanned row (buffer-pool misses). Charged as I/O
  // wait, not CPU — but it is incurred WHILE HOLDING the query's
  // locks, which is precisely why MyISAM table locks hurt and InnoDB
  // row locks help (Figure 11).
  sim::SimTime per_row_disk = sim::Nanos(600);
};

class Database {
 public:
  Database(sim::Scheduler& sched, sim::CpuResource& cpu, CostModel costs);

  // Creates a table; its id is the number of tables created before it.
  Table& CreateTable(std::string_view name, uint64_t rows, LockGranularity granularity);
  Table& table(TableId id) { return *tables_[id]; }
  // Lookup by name (set-up and tests; the query path uses ids).
  Table& table(std::string_view name);
  bool HasTable(std::string_view name) const;

  // Observes every table/row lock (crosstalk recording).
  void SetLockObserver(sim::LockObserver* observer);

  // Executes a query on behalf of transaction type `tag` (the
  // crosstalk tag). Acquires the locks the plan needs — per table, in
  // table-name order — performs the plan's disk I/O, charges the CPU
  // resource (through `hooks` if provided), releases, and co_returns
  // the raw (pre-overhead) CPU cost consumed. `query` and `hooks` must
  // outlive the returned task.
  sim::Task<sim::SimTime> Execute(const Query& query, uint64_t tag,
                                  ExecHooks* hooks = nullptr);

  // Raw CPU cost of one plan step.
  sim::SimTime StepCost(const QueryStep& step) const;

  // Pure cost estimation (no locks, no CPU): used by tests and for
  // calibration reporting.
  sim::SimTime EstimateCost(const QueryPlan& plan) const;
  // Disk wait the plan incurs while holding its locks.
  sim::SimTime EstimateDiskTime(const QueryPlan& plan) const;

  uint64_t queries_executed() const { return queries_executed_; }
  const CostModel& costs() const { return costs_; }

 private:
  sim::Scheduler& sched_;
  sim::CpuResource& cpu_;
  CostModel costs_;
  std::vector<std::unique_ptr<Table>> tables_;  // indexed by TableId
  // Each table's position in name order, indexed by TableId: the
  // deadlock-free order Execute acquires table locks in.
  std::vector<uint8_t> name_rank_;
  uint64_t queries_executed_ = 0;
};

}  // namespace whodunit::db

#endif  // SRC_DB_DATABASE_H_
