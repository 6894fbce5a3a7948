// The shard-determinism contract (docs/PERFORMANCE.md): for a fixed
// shard count the merged profile — CCT dump, crosstalk matrix, metrics
// export — is byte-identical no matter how many pool threads ran the
// shards. threads == 1 runs every shard inline on the calling thread,
// so the sweep also proves the parallel runs match a serial fold of
// the same shard list.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/bookstore/bookstore.h"
#include "src/apps/minihttpd/minihttpd.h"
#include "src/apps/miniproxy/miniproxy.h"
#include "src/apps/sedaserver/sedaserver.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_runner.h"

namespace whodunit {
namespace {

apps::BookstoreOptions SmallRun(int shards, int threads) {
  apps::BookstoreOptions o;
  o.clients = 32;
  o.duration = sim::Seconds(300);
  o.warmup = sim::Seconds(60);
  o.shards = shards;
  o.threads = threads;
  return o;
}

TEST(ShardInvarianceTest, MergedProfileIsByteIdenticalAcrossThreadCounts) {
  // Fixed logical decomposition (4 shards), varying physical
  // parallelism. Thread count must not change a single byte of the
  // merged profile or a single merged number.
  apps::BookstoreResult reference;
  for (int threads : {1, 2, 4, 8}) {
    const apps::BookstoreResult result = apps::RunBookstore(SmallRun(4, threads));
    if (threads == 1) {
      reference = result;
      ASSERT_FALSE(reference.db_profile_text.empty());
      ASSERT_FALSE(reference.crosstalk_text.empty());
      continue;
    }
    EXPECT_EQ(result.db_profile_text, reference.db_profile_text)
        << threads << " threads";
    EXPECT_EQ(result.crosstalk_text, reference.crosstalk_text)
        << threads << " threads";
    EXPECT_EQ(result.stitched_text, reference.stitched_text)
        << threads << " threads";
    EXPECT_EQ(result.interactions, reference.interactions);
    EXPECT_DOUBLE_EQ(result.throughput_tpm, reference.throughput_tpm);
    EXPECT_EQ(result.payload_bytes, reference.payload_bytes);
    EXPECT_EQ(result.context_bytes, reference.context_bytes);
    for (size_t t = 0; t < reference.per_type.size(); ++t) {
      EXPECT_EQ(result.per_type[t].count, reference.per_type[t].count) << "type " << t;
      EXPECT_EQ(result.per_type[t].db_cpu_ns, reference.per_type[t].db_cpu_ns)
          << "type " << t;
      EXPECT_DOUBLE_EQ(result.per_type[t].mean_response_ms,
                       reference.per_type[t].mean_response_ms)
          << "type " << t;
    }
  }
}

TEST(ShardInvarianceTest, SampledRunIsByteIdenticalAcrossThreadCounts) {
  // The production-sampling contract (docs/PRODUCTION.md): the 1%-rate
  // run composes with shard determinism. Each shard's decision stream
  // is a stateless hash of (seed + shard, decision index), so at a
  // fixed rate and seed the merged profile is still byte-identical at
  // any thread count.
  apps::BookstoreResult reference;
  for (int threads : {1, 2, 4, 8}) {
    apps::BookstoreOptions o = SmallRun(4, threads);
    o.sample_rate = 0.01;
    o.sample_seed = 1234;
    const apps::BookstoreResult result = apps::RunBookstore(o);
    if (threads == 1) {
      reference = result;
      ASSERT_FALSE(reference.db_profile_text.empty());
      continue;
    }
    EXPECT_EQ(result.db_profile_text, reference.db_profile_text)
        << threads << " threads";
    EXPECT_EQ(result.crosstalk_text, reference.crosstalk_text)
        << threads << " threads";
    EXPECT_EQ(result.stitched_text, reference.stitched_text)
        << threads << " threads";
    EXPECT_EQ(result.interactions, reference.interactions);
    EXPECT_DOUBLE_EQ(result.throughput_tpm, reference.throughput_tpm);
  }
}

TEST(ShardInvarianceTest, ShardCountSweepIsSelfDeterministic) {
  // The S-shard run is a workload definition: re-running it at any
  // S (and any thread placement) reproduces itself exactly.
  for (int shards : {1, 2, 4, 8}) {
    const apps::BookstoreResult first =
        apps::RunBookstore(SmallRun(shards, /*threads=*/2));
    const apps::BookstoreResult second =
        apps::RunBookstore(SmallRun(shards, /*threads=*/shards));
    EXPECT_EQ(first.db_profile_text, second.db_profile_text) << shards << " shards";
    EXPECT_EQ(first.crosstalk_text, second.crosstalk_text) << shards << " shards";
    EXPECT_EQ(first.interactions, second.interactions) << shards << " shards";
    EXPECT_DOUBLE_EQ(first.throughput_tpm, second.throughput_tpm)
        << shards << " shards";
  }
}

TEST(ShardInvarianceTest, OpenLoopPoissonIsByteIdenticalAcrossThreadCounts) {
  // The open-loop golden: Poisson generators (several per shard) with
  // 1% transaction sampling must keep the shard-merge byte-identity
  // contract — each generator's seed derives from the shard seed and
  // its spawn index, never from thread placement.
  apps::BookstoreResult reference;
  for (int threads : {1, 2, 4, 8}) {
    apps::BookstoreOptions o = SmallRun(4, threads);
    o.arrivals.kind = workload::ArrivalKind::kPoisson;
    o.arrivals.clients_per_generator = 4;  // 2 generators per 8-client shard
    o.sample_rate = 0.01;
    o.sample_seed = 77;
    const apps::BookstoreResult result = apps::RunBookstore(o);
    if (threads == 1) {
      reference = result;
      ASSERT_FALSE(reference.db_profile_text.empty());
      ASSERT_GT(reference.interactions, 0u);
      continue;
    }
    EXPECT_EQ(result.db_profile_text, reference.db_profile_text)
        << threads << " threads";
    EXPECT_EQ(result.crosstalk_text, reference.crosstalk_text)
        << threads << " threads";
    EXPECT_EQ(result.stitched_text, reference.stitched_text)
        << threads << " threads";
    EXPECT_EQ(result.interactions, reference.interactions);
    EXPECT_EQ(result.sim_events, reference.sim_events);
    EXPECT_EQ(result.peak_event_queue_depth, reference.peak_event_queue_depth);
    EXPECT_DOUBLE_EQ(result.throughput_tpm, reference.throughput_tpm);
  }
}

TEST(ShardInvarianceTest, AttributionArtifactsAreByteIdenticalAcrossThreadCounts) {
  // PR-9 extension of the golden contract: the wait-state attribution
  // artifacts — the whodunit-attr-v1 folded export and the rendered
  // --why-tail report, both per-shard sections in shard order — must
  // also be byte-identical at any thread count. Attribution is pure
  // per-event arithmetic plus an ordered-map fold, so nothing about
  // thread placement may leak into a single byte.
  apps::BookstoreResult reference;
  for (int threads : {1, 2, 4, 8}) {
    apps::BookstoreOptions o = SmallRun(4, threads);
    o.live = true;
    const apps::BookstoreResult result = apps::RunBookstore(o);
    if (threads == 1) {
      reference = result;
      ASSERT_FALSE(reference.live_attr_folded.empty());
      ASSERT_FALSE(reference.live_why_tail_text.empty());
      // Sanity: the folded export carries real wait-state frames.
      EXPECT_NE(reference.live_attr_folded.find(";service "), std::string::npos);
      EXPECT_NE(reference.live_why_tail_text.find("why-tail: p99 vs p50"),
                std::string::npos);
      continue;
    }
    EXPECT_EQ(result.live_attr_folded, reference.live_attr_folded)
        << threads << " threads";
    EXPECT_EQ(result.live_why_tail_text, reference.live_why_tail_text)
        << threads << " threads";
    EXPECT_EQ(result.live_query_json, reference.live_query_json)
        << threads << " threads";
  }
}

TEST(ShardInvarianceTest, FoldedMetricsExportIsThreadCountInvariant) {
  // The full metrics JSON — the third artifact of the golden contract.
  // Each job runs a small bookstore inside its own ShardEnv; folding
  // the shard registries in job order must give the same bytes at any
  // thread count.
  const auto job = [](size_t shard, sim::ShardEnv&) {
    apps::BookstoreOptions o;
    o.clients = 8;
    o.duration = sim::Seconds(120);
    o.warmup = sim::Seconds(30);
    o.seed = 1 + shard;
    apps::RunBookstore(o);
    return 0;
  };
  std::string reference_json;
  for (size_t threads : {1, 4}) {
    auto runs = sim::ParallelRunner::Run(3, threads, job);
    obs::MetricsRegistry folded;
    for (const auto& run : runs) {
      run.env->FoldMetricsInto(folded);
    }
    const std::string json = obs::ToJson(folded.Snapshot());
    if (threads == 1) {
      reference_json = json;
      ASSERT_FALSE(reference_json.empty());
      continue;
    }
    EXPECT_EQ(json, reference_json) << threads << " threads";
  }
}

// The three web servers share the bookstore's harness (src/apps/
// harness.h), so each must keep the same contract. A case flattens an
// app's merged result — profile text, live sections, every numeric
// field (doubles in hexfloat, so equality is exact) — into one string.
struct WebAppCase {
  const char* name;
  std::string (*fingerprint)(int shards, int threads);
  // Completed connections (minihttpd) or requests of an open-loop
  // Poisson run at an explicit aggregate offered load.
  uint64_t (*open_loop_total)(int shards, double offered_tps);
};

template <typename Options>
Options WebRun(int shards, int threads) {
  Options o;
  o.clients = 4;
  o.duration = sim::Seconds(1);
  o.shards = shards;
  o.threads = threads;
  return o;
}

template <typename Options>
Options OpenLoopRun(int shards, double offered_tps) {
  Options o = WebRun<Options>(shards, shards);
  o.clients = 64;
  o.duration = sim::Seconds(20);
  o.arrivals.kind = workload::ArrivalKind::kPoisson;
  o.arrivals.offered_load_tps = offered_tps;
  return o;
}

const WebAppCase kWebApps[] = {
    {"minihttpd",
     [](int shards, int threads) {
       auto o = WebRun<apps::MinihttpdOptions>(shards, threads);
       o.live = true;
       const apps::MinihttpdResult r = apps::RunMinihttpd(o);
       std::ostringstream s;
       s << std::hexfloat << r.throughput_mbps << ' ' << r.requests << ' ' << r.connections
         << ' ' << r.bytes_served << ' ' << r.flows_detected << ' ' << r.queue_flow_detected
         << ' ' << r.allocator_demoted << ' ' << r.critical_sections_emulated << ' '
         << r.listener_context_share << ' ' << r.worker_context_share << ' '
         << r.origin_cpu_ns << ' ' << r.total_cpu_ns << '\n'
         << r.profile_text << r.live_top_text << r.live_span_json;
       return s.str();
     },
     [](int shards, double offered_tps) {
       return apps::RunMinihttpd(OpenLoopRun<apps::MinihttpdOptions>(shards, offered_tps))
           .connections;
     }},
    {"miniproxy",
     [](int shards, int threads) {
       const apps::MiniproxyResult r =
           apps::RunMiniproxy(WebRun<apps::MiniproxyOptions>(shards, threads));
       std::ostringstream s;
       s << std::hexfloat << r.throughput_mbps << ' ' << r.requests << ' ' << r.cache_hits
         << ' ' << r.cache_misses << ' ' << r.hit_ratio << ' '
         << r.write_handler_context_count << ' ' << r.hit_path_share << ' '
         << r.miss_path_share << ' ' << r.hit_path_cpu_ns << ' ' << r.miss_path_cpu_ns << ' '
         << r.total_cpu_ns << '\n'
         << r.profile_text;
       return s.str();
     },
     [](int shards, double offered_tps) {
       return apps::RunMiniproxy(OpenLoopRun<apps::MiniproxyOptions>(shards, offered_tps))
           .requests;
     }},
    {"sedaserver",
     [](int shards, int threads) {
       auto o = WebRun<apps::SedaServerOptions>(shards, threads);
       o.live = true;
       const apps::SedaServerResult r = apps::RunSedaServer(o);
       std::ostringstream s;
       s << std::hexfloat << r.throughput_mbps << ' ' << r.requests << ' ' << r.cache_hits
         << ' ' << r.cache_misses << ' ' << r.write_stage_context_count << ' '
         << r.write_hit_share << ' ' << r.write_miss_share << ' ' << r.write_hit_cpu_ns << ' '
         << r.write_miss_cpu_ns << ' ' << r.total_cpu_ns << '\n'
         << r.profile_text << r.live_top_text << r.live_span_json;
       return s.str();
     },
     [](int shards, double offered_tps) {
       return apps::RunSedaServer(OpenLoopRun<apps::SedaServerOptions>(shards, offered_tps))
           .requests;
     }},
};

TEST(ShardInvarianceTest, WebAppsAreByteIdenticalAcrossThreadCounts) {
  for (const WebAppCase& app : kWebApps) {
    const std::string reference = app.fingerprint(/*shards=*/4, /*threads=*/1);
    ASSERT_NE(reference.find("transactional profile"), std::string::npos) << app.name;
    for (int threads : {2, 4}) {
      EXPECT_EQ(app.fingerprint(4, threads), reference) << app.name << ", " << threads
                                                        << " threads";
    }
  }
}

TEST(ShardInvarianceTest, OfferedLoadIsTheAggregateAcrossShards) {
  // --offered-load is the whole run's rate: four shards each offer a
  // quarter of it, so the sharded run completes about as much work as
  // the unsharded one (not four times as much).
  for (const WebAppCase& app : kWebApps) {
    const double one = static_cast<double>(app.open_loop_total(/*shards=*/1, 100.0));
    const double four = static_cast<double>(app.open_loop_total(/*shards=*/4, 100.0));
    ASSERT_GT(one, 0.0) << app.name;
    EXPECT_NEAR(four / one, 1.0, 0.10) << app.name << ": " << four << " vs " << one;
  }
}

}  // namespace
}  // namespace whodunit
