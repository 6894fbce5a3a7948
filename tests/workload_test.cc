#include "src/workload/tpcw.h"

#include <gtest/gtest.h>

#include <map>

#include "src/workload/calibration.h"

namespace whodunit::workload {
namespace {

TEST(TpcwTest, MixPercentsSumToHundred) {
  double total = 0;
  for (int i = 0; i < kTpcwTransactionCount; ++i) {
    total += BrowsingMixPercent(static_cast<TpcwTransaction>(i));
  }
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(TpcwTest, SamplerMatchesMix) {
  util::Rng rng(123);
  std::map<TpcwTransaction, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    ++counts[SampleBrowsingMix(rng)];
  }
  EXPECT_NEAR(counts[TpcwTransaction::kHome] * 100.0 / n, 29.0, 0.5);
  EXPECT_NEAR(counts[TpcwTransaction::kBestSellers] * 100.0 / n, 11.0, 0.5);
  EXPECT_NEAR(counts[TpcwTransaction::kProductDetail] * 100.0 / n, 21.0, 0.5);
  // Rare transactions occur but rarely.
  EXPECT_GT(counts[TpcwTransaction::kAdminConfirm], 0);
  EXPECT_LT(counts[TpcwTransaction::kAdminConfirm] * 100.0 / n, 0.3);
}

TEST(TpcwTest, NamesUniqueAndStable) {
  std::map<std::string, int> names;
  for (int i = 0; i < kTpcwTransactionCount; ++i) {
    ++names[TpcwName(static_cast<TpcwTransaction>(i))];
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kTpcwTransactionCount));
  EXPECT_EQ(names.count("BestSellers"), 1u);
}

TEST(TpcwTest, CacheabilityPerSpec) {
  EXPECT_TRUE(IsCacheable(TpcwTransaction::kBestSellers));
  EXPECT_TRUE(IsCacheable(TpcwTransaction::kSearchResult));
  EXPECT_FALSE(IsCacheable(TpcwTransaction::kHome));
  EXPECT_FALSE(IsCacheable(TpcwTransaction::kAdminConfirm));
}

TEST(TpcwTest, AdminConfirmWritesItem) {
  sim::Scheduler sched;
  sim::CpuResource cpu(sched, 1);
  db::Database database(sched, cpu, db::CostModel{});
  CreateTpcwTables(database, db::LockGranularity::kTableLocks);
  bool updates_item = false;
  for (const auto& s : TpcwPlan(TpcwTransaction::kAdminConfirm).steps()) {
    if (s.kind == db::QueryStep::Kind::kUpdateRow && s.table == database.table("item").id()) {
      updates_item = true;
    }
  }
  EXPECT_TRUE(updates_item);
}

TEST(TpcwTest, ReadOnlyInteractionsDontWrite) {
  for (TpcwTransaction t : {TpcwTransaction::kBestSellers, TpcwTransaction::kSearchResult,
                            TpcwTransaction::kHome, TpcwTransaction::kProductDetail}) {
    for (const auto& s : TpcwPlan(t).steps()) {
      EXPECT_NE(s.kind, db::QueryStep::Kind::kUpdateRow) << TpcwName(t);
    }
  }
}

TEST(TpcwTest, CpuSharesReproduceTable1Regime) {
  // Under the browsing mix, per-transaction DB cost * frequency must
  // make BestSellers and SearchResult dominate with roughly the
  // paper's 51.5 / 43.3 split.
  sim::Scheduler sched;
  sim::CpuResource cpu(sched, 1);
  db::Database database(sched, cpu, db::CostModel{});
  CreateTpcwTables(database, db::LockGranularity::kTableLocks);

  util::Rng rng(99);
  std::map<TpcwTransaction, double> weighted;
  double total = 0;
  for (int i = 0; i < kTpcwTransactionCount; ++i) {
    auto t = static_cast<TpcwTransaction>(i);
    const double cost =
        static_cast<double>(database.EstimateCost(*TpcwQuery(t, rng).plan));
    const double w = cost * BrowsingMixPercent(t);
    weighted[t] = w;
    total += w;
  }
  const double best = 100.0 * weighted[TpcwTransaction::kBestSellers] / total;
  const double search = 100.0 * weighted[TpcwTransaction::kSearchResult] / total;
  const double admin = 100.0 * weighted[TpcwTransaction::kAdminConfirm] / total;
  EXPECT_GT(best, 40.0);
  EXPECT_LT(best, 60.0);
  EXPECT_GT(search, 33.0);
  EXPECT_LT(search, 55.0);
  EXPECT_GT(best, search);  // BestSellers ranks first, as in Table 1
  EXPECT_LT(admin, 3.0);    // AdminConfirm is rare enough to stay small
  EXPECT_GT(admin, 0.1);
}

TEST(TpcwTest, AdminConfirmIsTheHeaviestSingleQuery) {
  sim::Scheduler sched;
  sim::CpuResource cpu(sched, 1);
  db::Database database(sched, cpu, db::CostModel{});
  util::Rng rng(5);
  const auto admin_cost =
      database.EstimateCost(*TpcwQuery(TpcwTransaction::kAdminConfirm, rng).plan);
  for (int i = 0; i < kTpcwTransactionCount; ++i) {
    auto t = static_cast<TpcwTransaction>(i);
    if (t == TpcwTransaction::kAdminConfirm) {
      continue;
    }
    EXPECT_GE(admin_cost, database.EstimateCost(*TpcwQuery(t, rng).plan)) << TpcwName(t);
  }
  // And it is in the several-hundred-millisecond class that makes the
  // Figure 11 response times plausible.
  EXPECT_GT(admin_cost, sim::Millis(200));
  EXPECT_LT(admin_cost, sim::Millis(900));
}

TEST(TpcwTest, PlansAreIndexedByInteraction) {
  for (int i = 0; i < kTpcwTransactionCount; ++i) {
    const auto t = static_cast<TpcwTransaction>(i);
    EXPECT_EQ(TpcwPlan(t).name(), TpcwName(t));
  }
}

TEST(TpcwTest, TablesCreatedWithChosenGranularity) {
  sim::Scheduler sched;
  sim::CpuResource cpu(sched, 1);
  db::Database database(sched, cpu, db::CostModel{});
  CreateTpcwTables(database, db::LockGranularity::kRowLocks);
  EXPECT_EQ(database.table("item").granularity(), db::LockGranularity::kRowLocks);
  EXPECT_EQ(database.table("orders").granularity(), db::LockGranularity::kTableLocks);
  EXPECT_TRUE(database.HasTable("order_line"));
  EXPECT_FALSE(database.HasTable("nonexistent"));
}

}  // namespace
}  // namespace whodunit::workload
