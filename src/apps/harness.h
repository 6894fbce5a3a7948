// The run harness every app shares: the profiler/sampling/live wiring
// of a deployment, and RunSharded — the single home of the shard
// determinism contract (docs/PERFORMANCE.md, "Parallel execution").
// The knobs it reads are RunOptions (run_options.h).
//
// An app plugs in by exposing a class with
//   explicit App(const Options&);
//   void SetShard(size_t index, size_t count);
//   Result Run(profiler::ShardProfile* out_profile);  // null = unsharded
//   static Result Merge(const std::vector<Result>& shards,
//                       const profiler::MergedProfile& profile);
//   static constexpr std::array<ShardSection<Result>, N> kShardSections;
// and its public entry point is `return RunSharded<App>(options);`.
#ifndef SRC_APPS_HARNESS_H_
#define SRC_APPS_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/run_options.h"
#include "src/callpath/profiler_mode.h"
#include "src/context/transaction_context.h"
#include "src/obs/live/daemon.h"
#include "src/obs/metrics.h"
#include "src/profiler/deployment.h"
#include "src/profiler/sampling.h"
#include "src/profiler/shard_merge.h"
#include "src/profiler/stage_profiler.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/util/rng.h"
#include "src/workload/arrivals.h"

namespace whodunit::apps {

// Stage profiler options at the §9 calibration (workload/calibration.h).
profiler::StageProfiler::Options StageOptions(std::string name, callpath::ProfilerMode mode);

// Applies the run's sampling knobs to `dep`. When the app has live
// knobs and `o.live` is set, also attaches a whodunitd built from them
// to every stage of `dep` — and to `outside_stage`, a stage profiler
// outside the deployment's registry, with the daemon's pre-query flush
// routed to it. Returns the daemon, or null when the run is not live.
template <typename Options>
std::unique_ptr<obs::live::Whodunitd> WireProfiling(
    sim::Scheduler& sched, profiler::Deployment& dep, const Options& o,
    profiler::StageProfiler* outside_stage = nullptr) {
  dep.sampling().Configure(profiler::SamplingConfig{
      o.sample_rate, o.sample_seed != 0 ? o.sample_seed : o.seed});
  if constexpr (requires { o.live; }) {
    if (o.live) {
      obs::live::LiveOptions lo;
      lo.history_bytes = o.live_history_bytes;
      lo.publish_batch = o.live_publish_batch;
      if constexpr (requires { o.live_span_ring; }) {
        lo.span_ring = o.live_span_ring;
        lo.attribution = o.live_attribution;
      }
      auto daemon = std::make_unique<obs::live::Whodunitd>(sched, lo);
      dep.AttachLive(daemon.get());
      if (outside_stage != nullptr) {
        outside_stage->AttachLive(daemon.get());
        daemon->set_flush_hook([outside_stage] { outside_stage->FlushLive(); });
      }
      return daemon;
    }
  }
  return nullptr;
}

// CPU of `stage` in the transaction contexts that end in `last`, split
// by whether the context passed through `via` — Figs. 9-10's write
// handler / stage reached via the cache-miss path vs the hit path.
struct PathSplit {
  size_t contexts = 0;
  uint64_t via_ns = 0;
  uint64_t other_ns = 0;
};
PathSplit SplitByPath(const profiler::Deployment& dep, const profiler::StageProfiler& stage,
                      context::Element last, context::Element via);

// Closes the daemon's publish channel (flushing the partial publish
// batch) and drains, so every export reflects every published event
// regardless of --publish-batch, then takes the result's live
// snapshot. No-op when the run is not live.
template <typename Result>
void SnapshotLive(obs::live::Whodunitd* daemon, sim::Scheduler& sched, Result* r) {
  if (daemon == nullptr) {
    return;
  }
  daemon->Shutdown();
  sched.Run();
  r->live_top_text = daemon->RenderTop();
  if constexpr (requires { r->live_query_json; }) {
    r->live_query_json = daemon->QueryJson();
  }
  r->live_span_json = daemon->ExportSpansJson();
  if constexpr (requires { r->live_why_tail_text; }) {
    r->live_why_tail_text = daemon->RenderWhyTail();
    r->live_attr_folded = daemon->ExportAttrFolded();
  }
}

// The client id of requests injected by an open-loop generator: no
// closed-loop client coroutine waits for their completion.
inline constexpr uint32_t kOpenLoopClient = 0xFFFFFFFFu;

// Starts the run's load. Open-loop arrivals get the generator pool of
// workload::ForEachGenerator, generator(tps, seed) each; a think_mean
// of 0 (no think time) offers one request per client per second unless
// offered_load_tps pins the aggregate. Closed loop gets client(index,
// seed) per client, seeds drawn from `seeder`.
template <typename Options, typename Client, typename Generator>
void SpawnLoad(sim::Scheduler& sched, const Options& o, sim::SimTime think_mean,
               util::Rng& seeder, Client client, Generator generator) {
  if (o.arrivals.kind != workload::ArrivalKind::kClosed) {
    workload::ForEachGenerator(
        o.arrivals, o.clients, think_mean, o.seed,
        [&](double tps, uint64_t seed) { sim::Spawn(sched, generator(tps, seed)); });
    return;
  }
  for (int c = 0; c < o.clients; ++c) {
    sim::Spawn(sched, client(static_cast<uint32_t>(c), seeder.NextU64()));
  }
}

// Shard `shard`'s options: the fixed client partition (sizes depend
// only on clients and shards), an explicit offered load split in
// proportion to the shard's client share, and seed / sample_seed
// offset by the shard index so shards draw independent streams.
template <typename Options>
Options ShardOptions(const Options& options, size_t shard) {
  const int shards = options.shards;
  Options so = options;
  so.shards = 1;
  so.threads = 1;
  so.clients = options.clients / shards +
               (static_cast<int>(shard) < options.clients % shards ? 1 : 0);
  if (options.arrivals.offered_load_tps > 0.0 && options.clients > 0) {
    so.arrivals.offered_load_tps = options.arrivals.offered_load_tps *
                                   static_cast<double>(so.clients) /
                                   static_cast<double>(options.clients);
  }
  so.seed = options.seed + shard;
  so.sample_seed = options.sample_seed != 0 ? options.sample_seed + shard : 0;
  return so;
}

// A result text that merges as per-shard sections, "=== shard i ===\n"
// then the shard's text, in shard order.
template <typename Result>
struct ShardSection {
  std::string Result::*field;
  // Only present when the run attaches a whodunitd (options.live).
  bool live_only;
  // JSON bodies end without a newline; their sections get one.
  bool json;
};

// Runs the app. shards <= 1 runs it directly on the caller's scheduler
// and metrics registry. Otherwise every shard runs in its own
// sim::ShardEnv on a sim::ParallelRunner, and the merge happens on the
// calling thread in shard order: profiles fold into a
// profiler::MergedProfile, App::Merge combines the numeric results,
// App::kShardSections become per-shard sections, and each shard's
// metrics fold into obs::Registry().
template <typename App, typename Options>
auto RunSharded(const Options& options) {
  if (options.shards <= 1) {
    App app(options);
    return app.Run(nullptr);
  }
  using Result = decltype(std::declval<App&>().Run(nullptr));
  struct ShardOutput {
    Result result;
    profiler::ShardProfile profile;
  };
  const auto shards = static_cast<size_t>(options.shards);
  auto runs = sim::ParallelRunner::Run(
      shards, static_cast<size_t>(options.threads),
      [&options, shards](size_t shard, sim::ShardEnv&) {
        App app(ShardOptions(options, shard));
        app.SetShard(shard, shards);
        ShardOutput out;
        out.result = app.Run(&out.profile);
        return out;
      });

  profiler::MergedProfile profile;
  std::vector<Result> results;
  results.reserve(shards);
  for (auto& run : runs) {
    profile.Fold(run.result.profile);
    results.push_back(std::move(run.result.result));
  }
  Result merged = App::Merge(results, profile);
  bool live = false;
  if constexpr (requires { options.live; }) {
    live = options.live;
  }
  for (const ShardSection<Result>& section : App::kShardSections) {
    if (section.live_only && !live) {
      continue;
    }
    std::string text;
    for (size_t i = 0; i < results.size(); ++i) {
      text += "=== shard " + std::to_string(i) + " ===\n";
      text += results[i].*section.field;
      if (section.json) {
        text += '\n';
      }
    }
    merged.*section.field = std::move(text);
  }
  for (const auto& run : runs) {
    run.env->FoldMetricsInto(obs::Registry());
  }
  return merged;
}

}  // namespace whodunit::apps

#endif  // SRC_APPS_HARNESS_H_
