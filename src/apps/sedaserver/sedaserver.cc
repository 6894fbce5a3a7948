#include "src/apps/sedaserver/sedaserver.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <vector>

#include "src/apps/harness.h"
#include "src/seda/stage.h"
#include "src/sim/channel.h"
#include "src/sim/cpu.h"
#include "src/util/lru_cache.h"
#include "src/util/rng.h"
#include "src/util/slot_table.h"
#include "src/workload/arrivals.h"
#include "src/workload/calibration.h"
#include "src/workload/webtrace.h"

namespace whodunit::apps {
namespace {

using callpath::TracksTransactions;
using profiler::StageProfiler;
using profiler::ThreadProfile;
using seda::StageGraph;
using seda::StageId;

// One client connection, from its draw to its last write. Records are
// recycled through a SlotTable, so `objects` keeps its capacity; the
// slot is every queue element's payload.
struct ReqState {
  uint32_t client = 0;
  uint32_t object = 0;
  std::vector<uint32_t> objects;
  size_t next_index = 0;
  obs::live::TxnHandle txn = 0;  // live-observability transaction handle
};

class Haboob {
 public:
  explicit Haboob(const SedaServerOptions& options)
      : options_(options),
        cpu_(sched_, workload::kWebServerCores, "haboob_cpu"),
        graph_(sched_),
        prof_(dep_, StageOptions("haboob", options.mode)),
        accept_ch_(sched_) {
    // The server's stage lives outside the deployment's registry.
    daemon_ = WireProfiling(sched_, dep_, options, &prof_);
    if (daemon_ != nullptr) {
      // Type names interned once; per-stage span names are interned in
      // Run() after the stage graph is built.
      http_request_sym_ = daemon_->symbols().Intern("http_request");
      cache_hit_sym_ = daemon_->symbols().Intern("cache_hit");
      cache_miss_sym_ = daemon_->symbols().Intern("cache_miss");
    }
  }

  SedaServerResult Run(profiler::ShardProfile* out_profile);

  void SetShard(size_t index, size_t count) { dep_.set_shard(index, count); }

  static SedaServerResult Merge(const std::vector<SedaServerResult>& shards,
                                const profiler::MergedProfile& profile);
  static constexpr std::array<ShardSection<SedaServerResult>, 2> kShardSections{{
      {&SedaServerResult::live_top_text, true, false},
      {&SedaServerResult::live_span_json, true, true},
  }};

 private:
  // WriteStage's hit/miss CPU shares, from the raw accumulators.
  static void SetShares(SedaServerResult* r) {
    if (r->total_cpu_ns > 0) {
      const double total = static_cast<double>(r->total_cpu_ns);
      r->write_hit_share = 100.0 * static_cast<double>(r->write_hit_cpu_ns) / total;
      r->write_miss_share = 100.0 * static_cast<double>(r->write_miss_cpu_ns) / total;
    }
  }

  ThreadProfile& TpOf(StageId stage, int worker) {
    return *worker_tps_.at(stage).at(static_cast<size_t>(worker));
  }

  // Unsampled elements skip the per-element context-concatenation
  // cost: that work really is elided for them (stage.cc never touches
  // the context tree), which is the overhead sampling buys back.
  sim::SimTime TrackingCost(bool sampled) const {
    return TracksTransactions(options_.mode) && sampled ? workload::kSedaTrackingCost : 0;
  }

  sim::Task<void> Charge(StageGraph::WorkerContext& wc, sim::SimTime cost) {
    ThreadProfile& tp = TpOf(wc.stage, wc.worker);
    co_await cpu_.Consume(prof_.ChargeCpu(
        tp, cost + workload::kSedaStageDispatchCost + TrackingCost(wc.sampled)));
  }

  // Each SEDA stage gets its own track in the live daemon, so the
  // transaction's spans are opened/closed against the stage's name
  // directly rather than through StageProfiler's (single) stage name.
  ReqState& Req(uint64_t payload) { return requests_[static_cast<uint32_t>(payload)]; }
  obs::live::TxnHandle TxnOf(uint64_t payload) { return Req(payload).txn; }
  void LiveJoinStage(const StageGraph::WorkerContext& wc) {
    if (daemon_ != nullptr) {
      daemon_->JoinSpan(TxnOf(wc.payload), stage_syms_[wc.stage], /*link=*/0,
                        daemon_->now(), wc.queue_wait_ns);
    }
  }
  void LiveLeaveStage(const StageGraph::WorkerContext& wc) {
    if (daemon_ != nullptr) {
      daemon_->EndSpan(TxnOf(wc.payload), stage_syms_[wc.stage], daemon_->now());
    }
  }

  void BuildStages() {
    listen_ = graph_.AddStage("ListenStage", 1, [this](auto& wc) -> sim::Task<void> {
      if (daemon_ != nullptr && wc.sampled) {
        ReqState& st = Req(wc.payload);
        st.txn = daemon_->BeginTxn(stage_syms_[listen_], http_request_sym_, daemon_->now());
      }
      co_await Charge(wc, workload::kAcceptCost);
      LiveLeaveStage(wc);
      wc.EnqueueTo(http_server_, wc.payload);
    });
    http_server_ = graph_.AddStage("HttpServer", options_.workers_per_stage,
                                   [this](auto& wc) -> sim::Task<void> {
                                     LiveJoinStage(wc);
                                     co_await Charge(wc, sim::Micros(12));
                                     LiveLeaveStage(wc);
                                     wc.EnqueueTo(read_, wc.payload);
                                   });
    read_ = graph_.AddStage("ReadStage", options_.workers_per_stage,
                            [this](auto& wc) -> sim::Task<void> {
                              LiveJoinStage(wc);
                              co_await Charge(wc, sim::Micros(15));
                              LiveLeaveStage(wc);
                              wc.EnqueueTo(http_recv_, wc.payload);
                            });
    http_recv_ = graph_.AddStage("HttpRecv", options_.workers_per_stage,
                                 [this](auto& wc) -> sim::Task<void> {
                                   LiveJoinStage(wc);
                                   co_await Charge(wc, workload::kHttpParseCost);
                                   LiveLeaveStage(wc);
                                   wc.EnqueueTo(cache_, wc.payload);
                                 });
    cache_ = graph_.AddStage("CacheStage", options_.workers_per_stage,
                             [this](auto& wc) -> sim::Task<void> {
                               LiveJoinStage(wc);
                               ReqState& st = Req(wc.payload);
                               co_await Charge(wc, workload::kCacheLookupCost);
                               const bool hit = object_cache_.Lookup(st.object);
                               if (daemon_ != nullptr) {
                                 // The cache outcome is this request's real
                                 // type; re-label the live transaction.
                                 daemon_->SetTxnType(
                                     st.txn, hit ? cache_hit_sym_ : cache_miss_sym_);
                               }
                               LiveLeaveStage(wc);
                               if (hit) {
                                 ++hits_;
                                 wc.EnqueueTo(write_, wc.payload);
                               } else {
                                 ++misses_;
                                 wc.EnqueueTo(miss_, wc.payload);
                               }
                             });
    miss_ = graph_.AddStage("MissStage", options_.workers_per_stage,
                            [this](auto& wc) -> sim::Task<void> {
                              LiveJoinStage(wc);
                              co_await Charge(wc, sim::Micros(20));
                              LiveLeaveStage(wc);
                              wc.EnqueueTo(file_io_, wc.payload);
                            });
    file_io_ = graph_.AddStage("FileIoStage", options_.workers_per_stage,
                               [this](auto& wc) -> sim::Task<void> {
                                 LiveJoinStage(wc);
                                 ReqState& st = Req(wc.payload);
                                 // Disk read, then populate the cache.
                                 co_await sim::Delay{sched_, sim::Micros(400)};
                                 const uint64_t bytes = trace_.ObjectBytes(st.object);
                                 co_await Charge(
                                     wc, static_cast<sim::SimTime>(
                                             static_cast<double>(bytes) * 1.5));
                                 object_cache_.Insert(st.object);
                                 LiveLeaveStage(wc);
                                 wc.EnqueueTo(write_, wc.payload);
                               });
    write_ = graph_.AddStage("WriteStage", options_.workers_per_stage,
                             [this](auto& wc) -> sim::Task<void> {
                               LiveJoinStage(wc);
                               ReqState& st = Req(wc.payload);
                               const uint64_t bytes = trace_.ObjectBytes(st.object);
                               co_await Charge(
                                   wc, static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                                                 workload::kSedaSendNsPerByte));
                               bytes_served_ += bytes;
                               ++requests_served_;
                               if (st.next_index < st.objects.size()) {
                                 st.object = st.objects[st.next_index++];
                                 LiveLeaveStage(wc);
                                 wc.EnqueueTo(read_, wc.payload);
                               } else {
                                 const obs::live::TxnHandle txn = st.txn;
                                 if (st.client != kOpenLoopClient) {
                                   client_done_[st.client]->Send(1);
                                 }
                                 requests_.Release(static_cast<uint32_t>(wc.payload));
                                 if (daemon_ != nullptr) {
                                   // Closes the write span too.
                                   daemon_->CompleteTxn(txn, daemon_->now());
                                 }
                               }
                               co_return;
                             });
  }

  sim::Process AcceptPump() {
    for (;;) {
      auto conn = co_await accept_ch_.Receive();
      if (!conn) {
        break;
      }
      // The sampling decision is drawn once per request, here at the
      // transaction's origin; it rides on every queue element the
      // request spawns through the stage graph.
      const bool sampled =
          !TracksTransactions(options_.mode) || dep_.sampling().Decide();
      graph_.InjectExternal(listen_, *conn, sampled);
    }
  }

  // Draws one connection's requests and queues it for ListenStage.
  void Inject(uint32_t client, util::Rng& rng) {
    const uint32_t slot = requests_.Acquire();
    ReqState& st = requests_[slot];
    st.client = client;
    st.objects.clear();
    trace_.DrawConnection(rng, st.objects);
    st.object = st.objects[0];
    st.next_index = 1;
    st.txn = 0;
    accept_ch_.Send(slot);
  }

  sim::Process Client(uint32_t index, uint64_t seed) {
    util::Rng rng(seed);
    for (;;) {
      if (sched_.now() >= options_.duration) {
        break;
      }
      Inject(index, rng);
      auto done = co_await client_done_[index]->Receive();
      if (!done) {
        break;
      }
    }
  }

  // Open-loop load: one generator stands in for ~10k logical clients,
  // injecting requests on an arrival clock instead of waiting for
  // completions (src/workload/arrivals.h).
  sim::Process OpenLoopGenerator(double tps, uint64_t seed) {
    util::Rng base(seed);
    workload::ArrivalProcess arrivals(options_.arrivals, tps, base.NextU64());
    util::Rng draw(base.NextU64());
    for (;;) {
      co_await sim::Delay{sched_, arrivals.NextInterarrival()};
      if (sched_.now() >= options_.duration) {
        break;
      }
      Inject(kOpenLoopClient, draw);
    }
  }

  SedaServerOptions options_;
  sim::Scheduler sched_;
  sim::CpuResource cpu_;
  StageGraph graph_;
  profiler::Deployment dep_;
  StageProfiler prof_;
  sim::Channel<uint64_t> accept_ch_;  // slots in requests_
  workload::WebTrace trace_;
  std::unique_ptr<obs::live::Whodunitd> daemon_;

  StageId listen_ = 0, http_server_ = 0, read_ = 0, http_recv_ = 0, cache_ = 0, miss_ = 0,
          file_io_ = 0, write_ = 0;
  // Stage/type names pre-interned against the daemon's symbol table:
  // stage_syms_ is indexed by StageId (filled in Run() once the stage
  // graph exists), the type syms in the ctor.
  std::vector<obs::live::SymId> stage_syms_;
  obs::live::SymId http_request_sym_ = 0;
  obs::live::SymId cache_hit_sym_ = 0;
  obs::live::SymId cache_miss_sym_ = 0;
  std::map<StageId, std::vector<ThreadProfile*>> worker_tps_;
  util::SlotTable<ReqState> requests_;
  std::vector<std::unique_ptr<sim::Channel<uint8_t>>> client_done_;
  util::LruCache object_cache_{workload::kProxyCacheObjects};

  uint64_t bytes_served_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

SedaServerResult Haboob::Run(profiler::ShardProfile* out_profile) {
  BuildStages();
  if (daemon_ != nullptr) {
    for (StageId s = 0; s < graph_.stage_count(); ++s) {
      stage_syms_.push_back(daemon_->symbols().Intern(graph_.StageName(s)));
    }
  }
  graph_.set_tracking(TracksTransactions(options_.mode));
  for (StageId s = 0; s < graph_.stage_count(); ++s) {
    const int workers = graph_.stage(s).workers();
    for (int w = 0; w < workers; ++w) {
      worker_tps_[s].push_back(
          &prof_.CreateThread(graph_.StageName(s) + "_w" + std::to_string(w)));
    }
  }
  graph_.set_context_listener(
      [this](StageId stage, int worker, context::NodeId node, bool sampled) {
        ThreadProfile& tp = TpOf(stage, worker);
        prof_.SetSampled(tp, sampled);
        prof_.SetLocalContext(tp, node);
      });
  dep_.set_element_namer([this](context::ElementKind kind, uint32_t id) {
    return kind == context::ElementKind::kStage ? graph_.StageName(id)
                                                : "handler:" + std::to_string(id);
  });

  graph_.Start();
  sim::Spawn(sched_, AcceptPump());
  util::Rng seeder(options_.seed);
  SpawnLoad(
      sched_, options_, /*think_mean=*/0, seeder,
      [this](uint32_t c, uint64_t seed) {
        client_done_.push_back(std::make_unique<sim::Channel<uint8_t>>(sched_));
        return Client(c, seed);
      },
      [this](double tps, uint64_t seed) { return OpenLoopGenerator(tps, seed); });

  const sim::SimTime warmup = options_.duration / 5;
  uint64_t warm_bytes = 0;
  sched_.ScheduleAt(warmup, [&] { warm_bytes = bytes_served_; });
  sched_.RunUntil(options_.duration);

  accept_ch_.Close();
  graph_.Stop();
  for (auto& ch : client_done_) {
    ch->Close();
  }
  sched_.Run();

  SedaServerResult result;
  result.requests = requests_served_;
  result.cache_hits = hits_;
  result.cache_misses = misses_;
  const double window_s = sim::ToSeconds(options_.duration - warmup);
  result.throughput_mbps =
      static_cast<double>(bytes_served_ - warm_bytes) * 8.0 / 1e6 / window_s;
  result.profile_text = prof_.RenderTransactionalProfile(0.001);

  const PathSplit split = SplitByPath(dep_, prof_, {context::ElementKind::kStage, write_},
                                     {context::ElementKind::kStage, miss_});
  result.write_stage_context_count = split.contexts;
  result.write_miss_cpu_ns = split.via_ns;
  result.write_hit_cpu_ns = split.other_ns;
  result.total_cpu_ns = prof_.total_cpu_time();
  SetShares(&result);
  if (out_profile != nullptr) {
    out_profile->functions = dep_.functions();
    profiler::AppendStageCcts(dep_, prof_, out_profile);
  }
  SnapshotLive(daemon_.get(), sched_, &result);
  return result;
}

SedaServerResult Haboob::Merge(const std::vector<SedaServerResult>& shards,
                               const profiler::MergedProfile& profile) {
  SedaServerResult merged;
  for (const SedaServerResult& r : shards) {
    merged.throughput_mbps += r.throughput_mbps;
    merged.requests += r.requests;
    merged.cache_hits += r.cache_hits;
    merged.cache_misses += r.cache_misses;
    // Every shard sees the same hit/miss context pair, so the merged
    // count is the max, not the sum.
    merged.write_stage_context_count =
        std::max(merged.write_stage_context_count, r.write_stage_context_count);
    merged.write_hit_cpu_ns += r.write_hit_cpu_ns;
    merged.write_miss_cpu_ns += r.write_miss_cpu_ns;
    merged.total_cpu_ns += r.total_cpu_ns;
  }
  SetShares(&merged);
  merged.profile_text = profile.RenderTransactionalProfile("haboob", 0.001);
  return merged;
}

}  // namespace

SedaServerResult RunSedaServer(const SedaServerOptions& options) {
  return RunSharded<Haboob>(options);
}

}  // namespace whodunit::apps
