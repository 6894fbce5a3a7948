#include "src/workload/tpcw.h"

#include <cassert>

namespace whodunit::workload {
namespace {

using Kind = db::QueryStep::Kind;

struct MixEntry {
  TpcwTransaction t;
  double percent;
};

// TPC-W browsing mix (WIPSb), per the specification.
constexpr std::array<MixEntry, kTpcwTransactionCount> kBrowsingMix = {{
    {TpcwTransaction::kAdminConfirm, 0.09},
    {TpcwTransaction::kAdminRequest, 0.10},
    {TpcwTransaction::kBestSellers, 11.00},
    {TpcwTransaction::kBuyConfirm, 0.69},
    {TpcwTransaction::kBuyRequest, 0.75},
    {TpcwTransaction::kCustomerRegistration, 0.82},
    {TpcwTransaction::kHome, 29.00},
    {TpcwTransaction::kNewProducts, 11.00},
    {TpcwTransaction::kOrderDisplay, 0.25},
    {TpcwTransaction::kOrderInquiry, 0.30},
    {TpcwTransaction::kProductDetail, 21.00},
    {TpcwTransaction::kSearchRequest, 12.00},
    {TpcwTransaction::kSearchResult, 11.00},
    {TpcwTransaction::kShoppingCart, 2.00},
}};

constexpr uint64_t kItemRows = 10000;
constexpr uint64_t kOrderLineRows = 77000;

// Table ids: the order CreateTpcwTables creates the tables in.
enum TpcwTable : db::TableId {
  kItem,
  kAuthor,
  kCustomer,
  kAddress,
  kOrders,
  kOrderLine,
  kCcXacts,
  kShoppingCartLine,
};
constexpr db::TableId kCpu = db::kNoTable;

// Each interaction's plan, indexed by TpcwTransaction. A row domain on
// a point read or update makes every request draw that step's row.
constexpr std::array<db::QueryPlan, kTpcwTransactionCount> kPlans = {{
    // AdminConfirm: sorting of table records, a temporary table, and
    // an UPDATE of one item row (paper §8.4). Rare but enormous, and
    // the UPDATE is what needs an exclusive lock on `item`.
    {"AdminConfirm",
     {
         {Kind::kScan, kItem, 100000},
         {Kind::kScan, kOrderLine, 60000},
         {Kind::kSort, kCpu, 60000},
         {Kind::kTempTable, kCpu, 20000},
         {Kind::kUpdateRow, kItem, 1, kItemRows},
     }},
    {"AdminRequest",
     {
         {Kind::kPointRead, kItem, 1, kItemRows},
         {Kind::kPointRead, kAuthor, 1},
     }},
    // BestSellers: join of recent order_lines with item, sorted by
    // sales — the heaviest read query (paper: 51.5% of MySQL CPU).
    {"BestSellers",
     {
         {Kind::kScan, kOrderLine, 60000},
         {Kind::kScan, kItem, 40000},
         {Kind::kSort, kCpu, 33000},
         {Kind::kTempTable, kCpu, 3000},
     }},
    {"BuyConfirm",
     {
         {Kind::kScan, kShoppingCartLine, 800},
         {Kind::kUpdateRow, kOrders, 1, 25920},
         {Kind::kUpdateRow, kOrderLine, 1, kOrderLineRows},
         {Kind::kUpdateRow, kCcXacts, 1, 25920},
     }},
    {"BuyRequest",
     {
         {Kind::kPointRead, kCustomer, 1},
         {Kind::kScan, kShoppingCartLine, 800},
         {Kind::kPointRead, kAddress, 1},
     }},
    {"CustomerRegistration",
     {
         {Kind::kPointRead, kCustomer, 1},
     }},
    {"Home",
     {
         {Kind::kPointRead, kCustomer, 1, 2880},
         {Kind::kScan, kItem, 700},
     }},
    {"NewProducts",
     {
         {Kind::kScan, kItem, 9000},
         {Kind::kSort, kCpu, 1800},
     }},
    {"OrderDisplay",
     {
         {Kind::kPointRead, kOrders, 1},
         {Kind::kScan, kOrderLine, 900},
     }},
    {"OrderInquiry",
     {
         {Kind::kPointRead, kCustomer, 1},
     }},
    {"ProductDetail",
     {
         {Kind::kPointRead, kItem, 1, kItemRows},
         {Kind::kPointRead, kAuthor, 1},
     }},
    {"SearchRequest",
     {
         {Kind::kScan, kItem, 500},
     }},
    // SearchResult: search by subject/title/author with a sort over
    // matches.
    {"SearchResult",
     {
         {Kind::kScan, kItem, 50000},
         {Kind::kScan, kAuthor, 25000},
         {Kind::kSort, kCpu, 28000},
     }},
    {"ShoppingCart",
     {
         {Kind::kScan, kShoppingCartLine, 900},
         {Kind::kPointRead, kItem, 1, kItemRows},
     }},
}};

}  // namespace

const char* TpcwName(TpcwTransaction t) {
  switch (t) {
    case TpcwTransaction::kAdminConfirm: return "AdminConfirm";
    case TpcwTransaction::kAdminRequest: return "AdminRequest";
    case TpcwTransaction::kBestSellers: return "BestSellers";
    case TpcwTransaction::kBuyConfirm: return "BuyConfirm";
    case TpcwTransaction::kBuyRequest: return "BuyRequest";
    case TpcwTransaction::kCustomerRegistration: return "CustomerRegistration";
    case TpcwTransaction::kHome: return "Home";
    case TpcwTransaction::kNewProducts: return "NewProducts";
    case TpcwTransaction::kOrderDisplay: return "OrderDisplay";
    case TpcwTransaction::kOrderInquiry: return "OrderInquiry";
    case TpcwTransaction::kProductDetail: return "ProductDetail";
    case TpcwTransaction::kSearchRequest: return "SearchRequest";
    case TpcwTransaction::kSearchResult: return "SearchResult";
    case TpcwTransaction::kShoppingCart: return "ShoppingCart";
  }
  return "?";
}

double BrowsingMixPercent(TpcwTransaction t) {
  for (const MixEntry& e : kBrowsingMix) {
    if (e.t == t) {
      return e.percent;
    }
  }
  return 0.0;
}

TpcwTransaction SampleBrowsingMix(util::Rng& rng) {
  double u = rng.NextDouble() * 100.0;
  for (const MixEntry& e : kBrowsingMix) {
    if (u < e.percent) {
      return e.t;
    }
    u -= e.percent;
  }
  return TpcwTransaction::kHome;
}

const db::QueryPlan& TpcwPlan(TpcwTransaction t) {
  return kPlans[static_cast<size_t>(t)];
}

db::Query TpcwQuery(TpcwTransaction t, util::Rng& rng) { return TpcwPlan(t).Bind(rng); }

bool IsCacheable(TpcwTransaction t) {
  // TPC-W clause 6.3.3.1 (paper §8.4): BestSellers and SearchResult
  // results may be cached.
  return t == TpcwTransaction::kBestSellers || t == TpcwTransaction::kSearchResult;
}

void CreateTpcwTables(db::Database& database, db::LockGranularity item_granularity) {
  // In TpcwTable order: the plans name tables by these ids.
  [[maybe_unused]] const db::TableId first =
      database.CreateTable("item", kItemRows, item_granularity).id();
  assert(first == kItem && "TPC-W tables must be the database's first tables");
  database.CreateTable("author", 2500, db::LockGranularity::kTableLocks);
  database.CreateTable("customer", 2880, db::LockGranularity::kTableLocks);
  database.CreateTable("address", 5760, db::LockGranularity::kTableLocks);
  database.CreateTable("orders", 25920, db::LockGranularity::kTableLocks);
  database.CreateTable("order_line", kOrderLineRows, db::LockGranularity::kTableLocks);
  database.CreateTable("cc_xacts", 25920, db::LockGranularity::kTableLocks);
  database.CreateTable("shopping_cart_line", 5000, db::LockGranularity::kTableLocks);
}

}  // namespace whodunit::workload
