// Steady-state heap traffic of the four host-cost benchmark
// configurations (perfbench/runner.cc): operator new calls counted
// (alloc_counter.cc) over each app run at two durations. The
// difference in calls over the difference in completed transactions is
// the marginal allocation rate of one more transaction — set-up,
// warmup and the bounded rings that fill once all cancel out of it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "src/apps/bookstore/bookstore.h"
#include "src/apps/minihttpd/minihttpd.h"
#include "src/apps/miniproxy/miniproxy.h"
#include "src/apps/sedaserver/sedaserver.h"
#include "src/shm/section_cache.h"
#include "src/sim/parallel_runner.h"
#include "tests/alloc_counter.h"

namespace whodunit::apps {
namespace {

// The ceiling on heap allocations per additional transaction.
constexpr double kMaxMarginalAllocsPerTxn = 0.25;

struct Sample {
  uint64_t allocs;
  uint64_t txns;
};

// Runs `run` (which returns its completed transactions) in a fresh
// shard environment, as the benchmark does, counting operator new.
template <typename Run>
Sample Measure(Run&& run) {
  sim::ShardEnv env;
  sim::ShardEnv::Scope scope(env);
  const uint64_t before = testing::AllocCount();
  const uint64_t txns = run();
  return {testing::AllocCount() - before, txns};
}

// Checks the marginal allocations per transaction between a short and
// a long run of `run(duration)`, after one discarded short run warms
// the process's thread-local pools. Shadow-verify builds (the
// asan-ubsan preset) replay every section-cache hit against copies of
// the machine state, so there the runs are exercised but the count,
// which measures the verifier, is not bounded.
template <typename Run>
void ExpectAllocationFree(sim::SimTime short_run, sim::SimTime long_run, Run&& run) {
  Measure([&] { return run(short_run); });
  const Sample a = Measure([&] { return run(short_run); });
  const Sample b = Measure([&] { return run(long_run); });
  EXPECT_GT(b.txns, a.txns);
  const double marginal = (static_cast<double>(b.allocs) - static_cast<double>(a.allocs)) /
                          static_cast<double>(b.txns - a.txns);
  std::printf("allocs %llu over %llu txns, %llu over %llu: %.3f per marginal txn\n",
              static_cast<unsigned long long>(a.allocs),
              static_cast<unsigned long long>(a.txns),
              static_cast<unsigned long long>(b.allocs),
              static_cast<unsigned long long>(b.txns), marginal);
  if (!shm::kShadowVerifyDefault) {
    EXPECT_LE(marginal, kMaxMarginalAllocsPerTxn);
  }
}

// tpcw_cached_closed / tpcw_live_open: the bookstore with servlet
// caching and 450 clients, closed loop or Poisson arrivals at 40 txn/s.
uint64_t RunTpcw(sim::SimTime duration, bool open_loop) {
  BookstoreOptions o;
  o.mode = callpath::ProfilerMode::kWhodunit;
  o.clients = 450;
  o.servlet_caching = true;
  if (open_loop) {
    o.arrivals.kind = workload::ArrivalKind::kPoisson;
    o.arrivals.offered_load_tps = 40.0;
  }
  o.duration = duration;
  o.warmup = sim::Seconds(60);
  o.seed = 1;
  o.live = open_loop;
  o.live_attribution = true;
  return RunBookstore(o).interactions;
}

TEST(BaseAllocTest, TpcwCachedClosed) {
  ExpectAllocationFree(sim::Seconds(180), sim::Seconds(360),
                       [](sim::SimTime d) { return RunTpcw(d, false); });
}

TEST(BaseAllocTest, TpcwLiveOpen) {
  ExpectAllocationFree(sim::Seconds(180), sim::Seconds(360),
                       [](sim::SimTime d) { return RunTpcw(d, true); });
}

// apache_churn: 64 clients, 8 workers, non-persistent connections.
TEST(BaseAllocTest, ApacheChurn) {
  ExpectAllocationFree(sim::Seconds(1), sim::Seconds(2), [](sim::SimTime d) {
    MinihttpdOptions o;
    o.mode = callpath::ProfilerMode::kWhodunit;
    o.clients = 64;
    o.workers = 8;
    o.persistent_connections = false;
    o.duration = d;
    o.seed = 1;
    return RunMinihttpd(o).requests;
  });
}

// proxy_seda: miniproxy, then sedaserver, 64 clients each.
TEST(BaseAllocTest, ProxySeda) {
  ExpectAllocationFree(sim::Seconds(1), sim::Seconds(2), [](sim::SimTime d) {
    MiniproxyOptions po;
    po.mode = callpath::ProfilerMode::kWhodunit;
    po.clients = 64;
    po.duration = d;
    po.seed = 1;
    SedaServerOptions so;
    so.mode = callpath::ProfilerMode::kWhodunit;
    so.clients = 64;
    so.duration = d;
    so.seed = 1;
    return RunMiniproxy(po).requests + RunSedaServer(so).requests;
  });
}

}  // namespace
}  // namespace whodunit::apps
