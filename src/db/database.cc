#include "src/db/database.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace whodunit::db {

Table::Table(sim::Scheduler& sched, TableId id, std::string name, uint64_t rows,
             LockGranularity granularity, int row_stripes)
    : id_(id), name_(std::move(name)), rows_(rows), granularity_(granularity) {
  table_lock_ = std::make_unique<sim::SimMutex>(sched, name_ + ".table_lock");
  row_stripes_.reserve(static_cast<size_t>(row_stripes));
  for (int i = 0; i < row_stripes; ++i) {
    row_stripes_.push_back(
        std::make_unique<sim::SimMutex>(sched, name_ + ".row_stripe_" + std::to_string(i)));
  }
}

void Table::SetLockObserver(sim::LockObserver* observer) {
  table_lock_->set_observer(observer);
  for (auto& stripe : row_stripes_) {
    stripe->set_observer(observer);
  }
}

Database::Database(sim::Scheduler& sched, sim::CpuResource& cpu, CostModel costs)
    : sched_(sched), cpu_(cpu), costs_(costs) {}

Query QueryPlan::Bind(util::Rng& rng) const {
  Query query;
  query.plan = this;
  for (size_t i = 0; i < count_; ++i) {
    if (steps_[i].row_domain > 0) {
      assert(steps_[i].row_domain <= std::numeric_limits<uint32_t>::max());
      query.rows[i] = static_cast<uint32_t>(rng.NextBelow(steps_[i].row_domain));
    }
  }
  return query;
}

Table& Database::CreateTable(std::string_view name, uint64_t rows,
                             LockGranularity granularity) {
  assert(!HasTable(name) && "duplicate table");
  assert(tables_.size() < kNoTable && "too many tables");
  const auto id = static_cast<TableId>(tables_.size());
  // The new table ranks after every table whose name sorts first, and
  // every table whose name sorts after it moves down one.
  name_rank_.push_back(0);
  for (TableId t = 0; t < id; ++t) {
    ++(tables_[t]->name() < name ? name_rank_[id] : name_rank_[t]);
  }
  tables_.push_back(std::make_unique<Table>(sched_, id, std::string(name), rows, granularity));
  return *tables_.back();
}

Table& Database::table(std::string_view name) {
  auto it = std::find_if(tables_.begin(), tables_.end(),
                         [name](const auto& t) { return t->name() == name; });
  assert(it != tables_.end() && "unknown table");
  return **it;
}

bool Database::HasTable(std::string_view name) const {
  return std::any_of(tables_.begin(), tables_.end(),
                     [name](const auto& t) { return t->name() == name; });
}

void Database::SetLockObserver(sim::LockObserver* observer) {
  for (auto& table : tables_) {
    table->SetLockObserver(observer);
  }
}

sim::SimTime Database::StepCost(const QueryStep& step) const {
  const auto rows = static_cast<sim::SimTime>(step.rows_touched);
  switch (step.kind) {
    case QueryStep::Kind::kScan:
      return rows * costs_.per_row_scan;
    case QueryStep::Kind::kSort: {
      // n log2(n) comparisons, per-row-sort cost per comparison unit.
      const double n = static_cast<double>(step.rows_touched);
      const double units = n <= 1 ? 1.0 : n * std::log2(n) / 10.0;
      return static_cast<sim::SimTime>(units * static_cast<double>(costs_.per_row_sort));
    }
    case QueryStep::Kind::kTempTable:
      return rows * costs_.per_row_temp;
    case QueryStep::Kind::kPointRead:
      return costs_.per_point_read;
    case QueryStep::Kind::kUpdateRow:
      return costs_.per_row_update;
  }
  return 0;
}

sim::SimTime Database::EstimateCost(const QueryPlan& plan) const {
  sim::SimTime cost = costs_.fixed_per_query;
  for (const QueryStep& step : plan.steps()) {
    cost += StepCost(step);
  }
  return cost;
}

sim::SimTime Database::EstimateDiskTime(const QueryPlan& plan) const {
  sim::SimTime disk = 0;
  for (const QueryStep& step : plan.steps()) {
    if (step.kind == QueryStep::Kind::kScan) {
      disk += static_cast<sim::SimTime>(step.rows_touched) * costs_.per_row_disk;
    }
  }
  return disk;
}

sim::Task<sim::SimTime> Database::Execute(const Query& query, uint64_t tag,
                                          ExecHooks* hooks) {
  ++queries_executed_;
  const std::span<const QueryStep> steps = query.plan->steps();

  // Work out the lock set: per table, the strongest access the plan
  // performs, in table-name order (deadlock-free acquisition). MySQL
  // 4's MyISAM path acquires all table locks up front.
  struct Need {
    TableId table;
    bool writes;
  };
  std::array<Need, kMaxPlanSteps> needs;
  size_t need_count = 0;
  for (const QueryStep& step : steps) {
    if (step.table == kNoTable) {
      continue;  // pure CPU step (sort / temp table)
    }
    Need* need = needs.data();
    while (need != needs.data() + need_count && need->table != step.table) {
      ++need;
    }
    if (need == needs.data() + need_count) {
      // Insert in name order.
      while (need != needs.data() && name_rank_[need[-1].table] > name_rank_[step.table]) {
        need[0] = need[-1];
        --need;
      }
      *need = Need{step.table, false};
      ++need_count;
    }
    need->writes = need->writes || step.kind == QueryStep::Kind::kUpdateRow;
  }

  // Acquire. The virtual time this loop blocks is the query's lock
  // wait, reported through `hooks` for latency attribution. Every step
  // adds at most one lock (its table's, or one row stripe).
  const sim::SimTime acquire_start = sched_.now();
  std::array<sim::SimMutex*, kMaxPlanSteps> held;
  size_t held_count = 0;
  for (size_t n = 0; n < need_count; ++n) {
    Table& t = table(needs[n].table);
    if (t.granularity() == LockGranularity::kTableLocks) {
      co_await t.table_lock().Acquire(
          tag, needs[n].writes ? sim::LockMode::kExclusive : sim::LockMode::kShared);
      held[held_count++] = &t.table_lock();
    } else if (needs[n].writes) {
      // InnoDB: readers are MVCC (no lock); writers lock the stripes of
      // the rows they update, each once, in address order.
      sim::SimMutex** const first = held.data() + held_count;
      sim::SimMutex** last = first;
      for (size_t i = 0; i < steps.size(); ++i) {
        if (steps[i].table != t.id() || steps[i].kind != QueryStep::Kind::kUpdateRow) {
          continue;
        }
        sim::SimMutex* stripe = &t.row_lock(query.rows[i]);
        if (std::find(first, last, stripe) == last) {
          *last++ = stripe;
        }
      }
      std::sort(first, last);
      for (sim::SimMutex** stripe = first; stripe != last; ++stripe) {
        co_await (*stripe)->Acquire(tag, sim::LockMode::kExclusive);
        ++held_count;
      }
    }
  }

  const sim::SimTime lock_wait_ns = sched_.now() - acquire_start;
  if (hooks != nullptr && lock_wait_ns > 0) {
    hooks->LockWait(lock_wait_ns);
  }

  // Execute: disk waits and the whole plan's CPU happen while holding
  // the locks (the behaviour that creates crosstalk).
  const sim::SimTime disk = EstimateDiskTime(*query.plan);
  if (disk > 0) {
    co_await sim::Delay{sched_, disk};
  }
  sim::SimTime raw_cost = costs_.fixed_per_query;
  sim::SimTime charged =
      hooks != nullptr ? hooks->Charge(costs_.fixed_per_query) : costs_.fixed_per_query;
  for (const QueryStep& step : steps) {
    const sim::SimTime raw_step = StepCost(step);
    raw_cost += raw_step;
    charged += hooks != nullptr ? hooks->ChargeStep(step, raw_step) : raw_step;
  }
  co_await cpu_.Consume(charged);

  while (held_count > 0) {
    held[--held_count]->Release(tag);
  }
  co_return raw_cost;
}

}  // namespace whodunit::db
