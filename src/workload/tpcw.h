// TPC-W workload model: the fourteen interactions, the browsing-mix
// frequencies, and each interaction's database query plan.
//
// The plans are calibrated (see calibration.h and EXPERIMENTS.md) so
// that under the browsing mix the database CPU shares reproduce the
// paper's Table 1 regime: BestSellers and SearchResult dominate
// (~51.5% / ~43.3%), AdminConfirm is rare but extremely heavy (a large
// sort, a temporary table, and an UPDATE of one `item` row — the write
// that makes MyISAM table locking hurt).
#ifndef SRC_WORKLOAD_TPCW_H_
#define SRC_WORKLOAD_TPCW_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/db/database.h"
#include "src/util/rng.h"

namespace whodunit::workload {

enum class TpcwTransaction : uint8_t {
  kAdminConfirm = 0,
  kAdminRequest,
  kBestSellers,
  kBuyConfirm,
  kBuyRequest,
  kCustomerRegistration,
  kHome,
  kNewProducts,
  kOrderDisplay,
  kOrderInquiry,
  kProductDetail,
  kSearchRequest,
  kSearchResult,
  kShoppingCart,
};
inline constexpr int kTpcwTransactionCount = 14;

const char* TpcwName(TpcwTransaction t);

// Browsing-mix probability (percent) of each interaction, per the
// TPC-W specification.
double BrowsingMixPercent(TpcwTransaction t);

// Draws the next interaction under the browsing mix.
TpcwTransaction SampleBrowsingMix(util::Rng& rng);

// The interaction's static database plan (table ids as created by
// CreateTpcwTables).
const db::QueryPlan& TpcwPlan(TpcwTransaction t);

// One request's query: the interaction's plan with its rows drawn from
// `rng` in step order (AdminConfirm updates one random item row).
db::Query TpcwQuery(TpcwTransaction t, util::Rng& rng);

// True for the interactions whose results TPC-W clause 6.3.3.1 allows
// the application to cache (the paper's caching optimization).
bool IsCacheable(TpcwTransaction t);

// Creates the TPC-W tables in `database`. `item_granularity` selects
// MyISAM-style table locks vs InnoDB-style row locks for `item` — the
// Figure 11 optimization knob.
void CreateTpcwTables(db::Database& database, db::LockGranularity item_granularity);

}  // namespace whodunit::workload

#endif  // SRC_WORKLOAD_TPCW_H_
