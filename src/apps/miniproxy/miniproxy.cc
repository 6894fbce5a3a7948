#include "src/apps/miniproxy/miniproxy.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <vector>

#include "src/apps/harness.h"
#include "src/events/event_loop.h"
#include "src/sim/channel.h"
#include "src/sim/cpu.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/util/lru_cache.h"
#include "src/util/rng.h"
#include "src/workload/arrivals.h"
#include "src/workload/calibration.h"
#include "src/workload/webtrace.h"

namespace whodunit::apps {
namespace {

using callpath::TracksTransactions;
using events::EventLoop;
using profiler::StageProfiler;
using profiler::ThreadProfile;

struct ClientConn {
  uint32_t client;
  std::vector<uint32_t> objects;  // one per request
};

struct OriginRequest {
  uint64_t req_handle;
  uint32_t object;
};

class Proxy {
 public:
  explicit Proxy(const MiniproxyOptions& options)
      : options_(options),
        proxy_cpu_(sched_, workload::kProxyCores, "squid_cpu"),
        origin_cpu_(sched_, 2, "origin_cpu"),
        loop_(sched_, "comm_poll"),
        prof_(dep_, StageOptions("squid", options.mode)),
        origin_ch_(sched_, workload::kLanLatency),
        accept_ch_(sched_),
        cache_(workload::kProxyCacheObjects) {
    WireProfiling(sched_, dep_, options);
  }

  MiniproxyResult Run(profiler::ShardProfile* out_profile);

  void SetShard(size_t index, size_t count) { dep_.set_shard(index, count); }

  static MiniproxyResult Merge(const std::vector<MiniproxyResult>& shards,
                               const profiler::MergedProfile& profile);
  static constexpr std::array<ShardSection<MiniproxyResult>, 0> kShardSections{};

 private:
  // The hit ratio and path shares, from the raw counts.
  static void SetRatios(MiniproxyResult* r) {
    if (r->cache_hits + r->cache_misses > 0) {
      r->hit_ratio = static_cast<double>(r->cache_hits) /
                     static_cast<double>(r->cache_hits + r->cache_misses);
    }
    if (r->total_cpu_ns > 0) {
      const double total = static_cast<double>(r->total_cpu_ns);
      r->hit_path_share = 100.0 * static_cast<double>(r->hit_path_cpu_ns) / total;
      r->miss_path_share = 100.0 * static_cast<double>(r->miss_path_cpu_ns) / total;
    }
  }

  // Per-dispatch cost of the instrumented event library when
  // transaction tracking is on (context concatenation + annotation).
  // Unsampled events skip it: the library elides the concatenation for
  // them, which is the overhead sampling buys back.
  sim::SimTime TrackingCost() const {
    return TracksTransactions(options_.mode) && loop_.current_sampled()
               ? workload::kPerEventTrackingCost
               : 0;
  }

  sim::Task<void> Charge(sim::SimTime cost) {
    co_await proxy_cpu_.Consume(prof_.ChargeCpu(*loop_tp_, cost));
  }

  struct ReqState {
    uint32_t client;
    uint32_t object = 0;
    std::vector<uint32_t> objects;
    size_t next_index = 0;
  };

  void RegisterHandlers() {
    accept_h_ = loop_.RegisterHandler(
        "httpAccept", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          co_await Charge(workload::kAcceptCost + TrackingCost());
          hc.loop.AddEvent(read_h_, hc.payload);
        });

    read_h_ = loop_.RegisterHandler(
        "clientReadRequest", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          ReqState& st = requests_.at(hc.payload);
          co_await Charge(workload::kHttpParseCost + workload::kCacheLookupCost +
                          TrackingCost());
          if (cache_.Lookup(st.object)) {
            ++hits_;
            hc.loop.AddEvent(write_h_, hc.payload);
          } else {
            ++misses_;
            hc.loop.AddEvent(connect_h_, hc.payload);
          }
        });

    connect_h_ = loop_.RegisterHandler(
        "commConnectHandle", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          ReqState& st = requests_.at(hc.payload);
          co_await Charge(sim::Micros(40) + TrackingCost());
          // Register interest in the origin's reply NOW (this is where
          // the transaction context is captured), then fire the I/O.
          events::Event ev = hc.loop.MakeEvent(reply_h_, hc.payload);
          pending_replies_.emplace(hc.payload, std::move(ev));
          origin_ch_.Send(OriginRequest{hc.payload, st.object});
        });

    reply_h_ = loop_.RegisterHandler(
        "httpReadReply", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          ReqState& st = requests_.at(hc.payload);
          const uint64_t bytes = trace_.ObjectBytes(st.object);
          co_await Charge(static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                                    workload::kProxyNsPerByte / 2) +
                          TrackingCost());
          cache_.Insert(st.object);
          hc.loop.AddEvent(write_h_, hc.payload);
        });

    write_h_ = loop_.RegisterHandler(
        "commHandleWrite", [this](EventLoop::HandlerContext& hc) -> sim::Task<void> {
          ReqState& st = requests_.at(hc.payload);
          const uint64_t bytes = trace_.ObjectBytes(st.object);
          co_await Charge(static_cast<sim::SimTime>(static_cast<double>(bytes) *
                                                    workload::kProxyNsPerByte) +
                          TrackingCost());
          bytes_served_ += bytes;
          ++requests_served_;
          if (st.next_index < st.objects.size()) {
            // Persistent connection: next request on the same fd. The
            // event context loops back to clientReadRequest — the
            // pruning case of §4.1.
            st.object = st.objects[st.next_index++];
            hc.loop.AddEvent(read_h_, hc.payload);
          } else {
            if (st.client != kOpenLoopClient) {
              client_done_[st.client]->Send(1);
            }
            requests_.erase(hc.payload);
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
      const uint64_t handle = next_handle_++;
      ReqState st;
      st.client = conn->client;
      st.objects = std::move(conn->objects);
      st.object = st.objects.empty() ? 0 : st.objects[0];
      st.next_index = 1;
      requests_.emplace(handle, std::move(st));
      // The sampling decision is drawn once per connection, here at
      // the transaction's origin; it rides on every event the
      // connection spawns.
      const bool sampled =
          !TracksTransactions(options_.mode) || dep_.sampling().Decide();
      loop_.AddExternalEvent(accept_h_, handle, sampled);
    }
  }

  sim::Process OriginServer() {
    for (;;) {
      auto req = co_await origin_ch_.Receive();
      if (!req) {
        break;
      }
      sim::Spawn(sched_, OriginWorker(*req));
    }
  }

  sim::Process OriginWorker(OriginRequest req) {
    const uint64_t bytes = trace_.ObjectBytes(req.object);
    co_await origin_cpu_.Consume(
        workload::kOriginServiceCost +
        static_cast<sim::SimTime>(static_cast<double>(bytes) * 2.0));
    // Network latency back to the proxy, then fire the armed event.
    co_await sim::Delay{sched_, workload::kLanLatency};
    auto it = pending_replies_.find(req.req_handle);
    if (it != pending_replies_.end()) {
      loop_.Post(std::move(it->second));
      pending_replies_.erase(it);
    }
  }

  sim::Process Client(uint32_t index, uint64_t seed) {
    util::Rng rng(seed);
    for (;;) {
      if (sched_.now() >= options_.duration) {
        break;
      }
      ClientConn conn;
      conn.client = index;
      conn.objects = trace_.DrawConnection(rng);
      accept_ch_.Send(std::move(conn));
      auto done = co_await client_done_[index]->Receive();
      if (!done) {
        break;
      }
    }
  }

  // Open-loop load: one generator stands in for ~10k logical clients,
  // injecting connections on an arrival clock instead of waiting for
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
      ClientConn conn;
      conn.client = kOpenLoopClient;
      conn.objects = trace_.DrawConnection(draw);
      accept_ch_.Send(std::move(conn));
    }
  }

  MiniproxyOptions options_;
  sim::Scheduler sched_;
  sim::CpuResource proxy_cpu_;
  sim::CpuResource origin_cpu_;
  EventLoop loop_;
  profiler::Deployment dep_;
  StageProfiler prof_;
  ThreadProfile* loop_tp_ = nullptr;
  sim::Channel<OriginRequest> origin_ch_;
  sim::Channel<ClientConn> accept_ch_;
  util::LruCache cache_;
  workload::WebTrace trace_;

  events::HandlerId accept_h_ = 0, read_h_ = 0, connect_h_ = 0, reply_h_ = 0, write_h_ = 0;
  std::map<uint64_t, ReqState> requests_;
  std::map<uint64_t, events::Event> pending_replies_;
  std::vector<std::unique_ptr<sim::Channel<uint8_t>>> client_done_;
  uint64_t next_handle_ = 1;

  uint64_t bytes_served_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

MiniproxyResult Proxy::Run(profiler::ShardProfile* out_profile) {
  loop_tp_ = &prof_.CreateThread("event_loop");
  RegisterHandlers();
  loop_.set_tracking(TracksTransactions(options_.mode));
  loop_.set_context_listener([this](context::NodeId node, bool sampled) {
    prof_.SetSampled(*loop_tp_, sampled);
    prof_.SetLocalContext(*loop_tp_, node);
  });
  dep_.set_element_namer([this](context::ElementKind kind, uint32_t id) {
    return kind == context::ElementKind::kHandler ? loop_.HandlerName(id)
                                                  : "stage:" + std::to_string(id);
  });

  sim::Spawn(sched_, loop_.Run());
  sim::Spawn(sched_, AcceptPump());
  sim::Spawn(sched_, OriginServer());
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
  origin_ch_.Close();
  loop_.Stop();
  for (auto& ch : client_done_) {
    ch->Close();
  }
  sched_.Run();

  MiniproxyResult result;
  result.requests = requests_served_;
  result.cache_hits = hits_;
  result.cache_misses = misses_;
  const double window_s = sim::ToSeconds(options_.duration - warmup);
  result.throughput_mbps =
      static_cast<double>(bytes_served_ - warm_bytes) * 8.0 / 1e6 / window_s;
  result.profile_text = prof_.RenderTransactionalProfile(0.001);

  // The contexts in which commHandleWrite executed, split into the
  // hit path and the miss path (through httpReadReply).
  const PathSplit split =
      SplitByPath(dep_, prof_, {context::ElementKind::kHandler, write_h_},
                  {context::ElementKind::kHandler, reply_h_});
  result.write_handler_context_count = split.contexts;
  result.miss_path_cpu_ns = split.via_ns;
  result.hit_path_cpu_ns = split.other_ns;
  result.total_cpu_ns = prof_.total_cpu_time();
  SetRatios(&result);
  if (out_profile != nullptr) {
    out_profile->functions = dep_.functions();
    profiler::AppendStageCcts(dep_, prof_, out_profile);
  }
  return result;
}

MiniproxyResult Proxy::Merge(const std::vector<MiniproxyResult>& shards,
                             const profiler::MergedProfile& profile) {
  MiniproxyResult merged;
  for (const MiniproxyResult& r : shards) {
    merged.throughput_mbps += r.throughput_mbps;
    merged.requests += r.requests;
    merged.cache_hits += r.cache_hits;
    merged.cache_misses += r.cache_misses;
    // Every shard sees the same hit/miss context pair, so the merged
    // count is the max, not the sum.
    merged.write_handler_context_count =
        std::max(merged.write_handler_context_count, r.write_handler_context_count);
    merged.hit_path_cpu_ns += r.hit_path_cpu_ns;
    merged.miss_path_cpu_ns += r.miss_path_cpu_ns;
    merged.total_cpu_ns += r.total_cpu_ns;
  }
  SetRatios(&merged);
  merged.profile_text = profile.RenderTransactionalProfile("squid", 0.001);
  return merged;
}

}  // namespace

MiniproxyResult RunMiniproxy(const MiniproxyOptions& options) {
  return RunSharded<Proxy>(options);
}

}  // namespace whodunit::apps
