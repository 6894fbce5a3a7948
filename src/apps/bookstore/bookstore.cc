#include "src/apps/bookstore/bookstore.h"

#include <algorithm>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/apps/harness.h"
#include "src/crosstalk/crosstalk.h"
#include "src/profiler/analysis.h"
#include "src/profiler/stitcher.h"
#include "src/sim/channel.h"
#include "src/sim/cpu.h"
#include "src/sim/scheduler.h"
#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/shm/section_cache.h"
#include "src/sim/task.h"
#include "src/vm/interpreter.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/calibration.h"

namespace whodunit::apps {
namespace {

using callpath::TracksTransactions;
using context::SynopsisId;
using profiler::StageProfiler;
using profiler::ThreadProfile;
using workload::TpcwTransaction;

struct DbReply {
  SynopsisId syn = context::kEmptySynopsis;
};
// Trivially copyable: the query is a pointer to its static plan plus
// the rows this request drew.
struct DbRequest {
  TpcwTransaction type;  // ground-truth accounting only
  db::Query query;
  SynopsisId syn = context::kEmptySynopsis;
  obs::live::TxnHandle txn = 0;  // live-observability transaction handle
  int64_t sent_ns = 0;   // send stamp; receiver derives queue wait
  sim::Channel<DbReply>* reply = nullptr;
};
static_assert(std::is_trivially_copyable_v<DbRequest>);
struct TomcatReply {
  uint64_t body_bytes = 0;
  SynopsisId syn = context::kEmptySynopsis;
};
struct TomcatRequest {
  TpcwTransaction type;
  uint32_t cache_key = 0;
  SynopsisId syn = context::kEmptySynopsis;
  obs::live::TxnHandle txn = 0;  // live-observability transaction handle
  int64_t sent_ns = 0;   // send stamp; receiver derives queue wait
  sim::Channel<TomcatReply>* reply = nullptr;
};
struct ProxyReply {
  uint64_t bytes = 0;
};
struct ProxyRequest {
  TpcwTransaction type;
  uint32_t cache_key = 0;
  sim::Channel<ProxyReply>* reply = nullptr;
};

constexpr uint64_t kRequestBytes = 600;
constexpr uint64_t kPageBytes = 8 * 1024;
constexpr uint64_t kImageBytes = 5 * 1024;

class Bookstore {
 public:
  explicit Bookstore(const BookstoreOptions& options)
      : options_(options),
        proxy_cpu_(sched_, options.proxy_cores, "squid_cpu"),
        tomcat_cpu_(sched_, options.tomcat_cores, "tomcat_cpu"),
        db_cpu_(sched_, options.db_cores, "mysql_cpu"),
        squid_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, StageOptions("squid", options.mode)))),
        tomcat_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, StageOptions("tomcat", options.mode)))),
        mysql_(dep_.AddStage(
            std::make_unique<StageProfiler>(dep_, StageOptions("mysql", options.mode)))),
        database_(sched_, db_cpu_, db::CostModel{}),
        proxy_ch_(sched_, workload::kLanLatency),
        tomcat_ch_(sched_, workload::kLanLatency),
        db_ch_(sched_, workload::kLanLatency) {
    workload::CreateTpcwTables(database_, options.item_granularity);
    database_.SetLockObserver(&crosstalk_);
    daemon_ = WireProfiling(sched_, dep_, options);
    if (daemon_ != nullptr) {
      // Intern the fourteen interaction names once at wiring time so
      // the per-request publish path is pure integer work.
      for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
        tpcw_syms_[static_cast<size_t>(t)] = daemon_->symbols().Intern(
            workload::TpcwName(static_cast<TpcwTransaction>(t)));
      }
      crosstalk_.set_wait_sink([this](uint64_t waiter, uint64_t holder, uint64_t wait_ns) {
        daemon_->IngestWait(waiter, holder, wait_ns);
      });
    }
    // §8.1: Whodunit also watches mysqld's own critical sections.
    shm_detector_ = std::make_unique<shm::FlowDetector>([this](vm::ThreadId t) {
      return mysql_.CurrentCtxtId(*mysql_tps_[t]);
    });
    table_read_prog_ = shm::TableRead(kDbBufferLockId);
    table_write_prog_ = shm::TableWrite(kDbBufferLockId);
    counter_prog_ = shm::CounterIncrement(kDbCounterLockId);
  }

  // Runs the simulation; when `out_profile` is set, also extracts the
  // mergeable profile snapshot (for the shard-parallel path).
  BookstoreResult Run(profiler::ShardProfile* out_profile);

  void SetShard(size_t index, size_t count) { dep_.set_shard(index, count); }

  static BookstoreResult Merge(const std::vector<BookstoreResult>& shards,
                               const profiler::MergedProfile& merged);
  static constexpr std::array<ShardSection<BookstoreResult>, 6> kShardSections{{
      {&BookstoreResult::stitched_text, false, false},
      {&BookstoreResult::live_top_text, true, false},
      {&BookstoreResult::live_query_json, true, true},
      {&BookstoreResult::live_span_json, true, true},
      {&BookstoreResult::live_why_tail_text, true, false},
      {&BookstoreResult::live_attr_folded, true, false},
  }};

 private:
  // Per-type shares of MySQL CPU, from the raw per-type accumulators.
  static void SetCpuPercents(BookstoreResult* r) {
    uint64_t label_total = 0;
    uint64_t ground_total = 0;
    for (const auto& row : r->per_type) {
      label_total += row.db_cpu_ns;
      ground_total += row.db_cpu_ground_ns;
    }
    for (auto& row : r->per_type) {
      if (label_total > 0) {
        row.db_cpu_percent =
            100.0 * static_cast<double>(row.db_cpu_ns) / static_cast<double>(label_total);
      }
      if (ground_total > 0) {
        row.db_cpu_percent_ground = 100.0 * static_cast<double>(row.db_cpu_ground_ns) /
                                    static_cast<double>(ground_total);
      }
    }
  }

  // Draws the next browsing-mix interaction and its result-cache key.
  static ProxyRequest DrawRequest(util::Rng& rng) {
    ProxyRequest req;
    req.type = workload::SampleBrowsingMix(rng);
    req.cache_key = static_cast<uint32_t>(
        rng.NextBelow(req.type == TpcwTransaction::kBestSellers ? 20 : 40));
    return req;
  }

  // The §9.1 context bytes a message's synopsis occupies on the wire.
  size_t WireBytes(SynopsisId syn) const { return dep_.synopsis_table().WireBytes(syn); }

  // Counts an interaction that started at `start` and completes now,
  // if both fall in the measure window.
  void RecordInteraction(TpcwTransaction type, sim::SimTime start) {
    const sim::SimTime end = sched_.now();
    if (start >= options_.warmup && end <= options_.duration) {
      ++interactions_;
      response_ms_[static_cast<size_t>(type)].Add(sim::ToMillis(end - start));
    }
  }

  sim::Process ProxyWorker(int index) {
    ThreadProfile& tp = *squid_tps_[static_cast<size_t>(index)];
    auto& reply_ch = *proxy_reply_[static_cast<size_t>(index)];
    const auto client_side_fn = squid_.RegisterFunction("client_side");
    const auto forward_fn = squid_.RegisterFunction("http_forward");
    for (;;) {
      auto req = co_await proxy_ch_.Receive();
      if (!req) {
        break;
      }
      squid_.ResetTransaction(tp);
      const obs::live::TxnHandle live_txn =
          squid_.LiveBegin(tp, tpcw_syms_[static_cast<size_t>(req->type)]);
      uint64_t bytes = 0;
      {
        auto f0 = squid_.EnterFrame(tp, client_side_fn);
        // Static images served from Squid's cache.
        co_await proxy_cpu_.Consume(squid_.ChargeCpu(
            tp, workload::kProxyForwardCost +
                    workload::kStaticImagesPerPage * workload::kProxyStaticHitCost));
        {
          auto f1 = squid_.EnterFrame(tp, forward_fn);
          TomcatRequest treq;
          treq.type = req->type;
          treq.cache_key = req->cache_key;
          treq.txn = live_txn;
          treq.reply = &reply_ch;
          treq.syn = squid_.PrepareSend(tp);
          squid_.AccountMessage(kRequestBytes, WireBytes(treq.syn));
          treq.sent_ns = sched_.now();
          tomcat_ch_.Send(treq);
          auto rep = co_await reply_ch.Receive();
          if (!rep) {
            break;
          }
          squid_.OnReceive(tp, rep->syn);
          squid_.AccountMessage(rep->body_bytes, WireBytes(rep->syn));
          bytes = rep->body_bytes +
                  workload::kStaticImagesPerPage * kImageBytes;
        }
      }
      squid_.LiveComplete(tp);
      req->reply->Send(ProxyReply{bytes});
    }
  }

  sim::Process TomcatWorker(int index) {
    ThreadProfile& tp = *tomcat_tps_[static_cast<size_t>(index)];
    auto& reply_ch = *tomcat_reply_[static_cast<size_t>(index)];
    for (;;) {
      auto req = co_await tomcat_ch_.Receive();
      if (!req) {
        break;
      }
      tomcat_.OnReceive(tp, req->syn);
      // Queue residency: time since the send stamp beyond the wire
      // latency is time the request sat waiting for a free worker.
      tomcat_.LiveJoin(tp, req->txn,
                       std::max<int64_t>(0, sched_.now() - req->sent_ns -
                                                workload::kLanLatency));
      {
        auto f0 = tomcat_.EnterFrame(tp, service_fn_);
        auto f1 = tomcat_.EnterFrame(tp, servlet_fns_[static_cast<size_t>(req->type)]);
        const bool cacheable = options_.servlet_caching && workload::IsCacheable(req->type);
        bool cache_hit = false;
        if (cacheable) {
          auto it = result_cache_.find({req->type, req->cache_key});
          cache_hit = it != result_cache_.end() && it->second > sched_.now();
        }
        if (cache_hit) {
          co_await tomcat_cpu_.Consume(
              tomcat_.ChargeCpu(tp, workload::kServletCacheHitCost));
        } else {
          {
            auto f2 = tomcat_.EnterFrame(tp, db_rpc_fn_);
            DbRequest dreq;
            dreq.type = req->type;
            dreq.query = workload::TpcwQuery(req->type, *tomcat_rngs_[static_cast<size_t>(index)]);
            dreq.txn = req->txn;
            dreq.reply = &reply_ch;
            dreq.syn = tomcat_.PrepareSend(tp);
            tomcat_.AccountMessage(kRequestBytes, WireBytes(dreq.syn));
            dreq.sent_ns = sched_.now();
            db_ch_.Send(dreq);
            auto drep = co_await reply_ch.Receive();
            if (!drep) {
              break;
            }
            tomcat_.OnReceive(tp, drep->syn);
            tomcat_.AccountMessage(2048, WireBytes(drep->syn));
          }
          if (cacheable) {
            result_cache_[{req->type, req->cache_key}] =
                sched_.now() + workload::kResultCacheTtl;
          }
          tomcat_.NoteInternalCalls(tp, 12000);
          co_await tomcat_cpu_.Consume(tomcat_.ChargeCpu(tp, workload::kServletCost));
        }
      }
      TomcatReply rep;
      rep.body_bytes = kPageBytes;
      rep.syn = tomcat_.PrepareReply(tp);
      tomcat_.AccountMessage(rep.body_bytes, WireBytes(rep.syn));
      tomcat_.LiveLeave(tp);
      req->reply->Send(rep);
    }
  }

  // MySQL-internal shared-memory traffic for one query: the server
  // thread touches row buffers (read or write, depending on the plan)
  // under the buffer mutex and bumps a shared statistics counter —
  // the access patterns §8.1 validates the algorithm against.
  sim::SimTime RunDbGuestOps(int worker, bool writes, uint64_t row) {
    // Unsampled transactions skip the flow detector entirely — no
    // produce-point snapshots, no emulation, no guest cycles.
    if (!TracksTransactions(options_.mode) ||
        !mysql_.IsSampled(*mysql_tps_[static_cast<size_t>(worker)])) {
      return 0;
    }
    const auto t = static_cast<vm::ThreadId>(worker);
    vm::CpuState& cpu = guest_cpus_[t];
    int64_t cycles = 0;
    if (shm_detector_->ShouldEmulate(kDbBufferLockId)) {
      cpu.regs[0] = kDbTableBase;
      cpu.regs[1] = row % 64;
      cpu.regs[2] = row | 1;
      const vm::Program& prog = writes ? table_write_prog_ : table_read_prog_;
      cycles += section_cache_.Run(interp_, prog, t, cpu, guest_mem_, shm_detector_.get())
                    .guest_cycles;
    }
    if (shm_detector_->ShouldEmulate(kDbCounterLockId)) {
      cpu.regs[0] = kDbCounterAddr;
      cycles +=
          section_cache_.Run(interp_, counter_prog_, t, cpu, guest_mem_, shm_detector_.get())
              .guest_cycles;
    }
    return workload::CyclesToNs(cycles);
  }

  // Charges a query to the mysql stage: the fixed cost carries the
  // query's guest-section cost, and every plan step runs in its own
  // call-path frame (row_scan, sort_records, ...).
  struct DbHooks final : db::ExecHooks {
    Bookstore& app;
    ThreadProfile& tp;
    sim::SimTime guest_cost;

    DbHooks(Bookstore& a, ThreadProfile& t, sim::SimTime guest)
        : app(a), tp(t), guest_cost(guest) {}
    sim::SimTime Charge(sim::SimTime c) override {
      return app.mysql_.ChargeCpu(tp, c + guest_cost);
    }
    sim::SimTime ChargeStep(const db::QueryStep& step, sim::SimTime c) override {
      auto frame = app.mysql_.EnterFrame(tp, app.step_fns_[static_cast<size_t>(step.kind)]);
      return app.mysql_.ChargeCpu(tp, c);
    }
    void LockWait(sim::SimTime wait_ns) override { app.mysql_.LiveLockWait(tp, wait_ns); }
  };

  sim::Process DbWorker(int index) {
    ThreadProfile& tp = *mysql_tps_[static_cast<size_t>(index)];
    for (;;) {
      auto req = co_await db_ch_.Receive();
      if (!req) {
        break;
      }
      mysql_.OnReceive(tp, req->syn);
      mysql_.LiveJoin(tp, req->txn,
                      std::max<int64_t>(0, sched_.now() - req->sent_ns -
                                               workload::kLanLatency));
      {
        auto f0 = mysql_.EnterFrame(tp, do_command_fn_);
        auto f1 = mysql_.EnterFrame(tp, execute_fn_);
        // Row handlers, comparisons, copies, index probes: gprof pays
        // mcount for each of these internal calls.
        mysql_.NoteInternalCalls(tp, req->query.plan->rows_touched() * 5);
        const uint64_t tag = mysql_.CrosstalkTag(tp);
        if (daemon_ != nullptr && mysql_.IsSampled(tp)) {
          // Crosstalk tags resolve to TPC-W interaction names in the
          // daemon's live matrix; the first name a tag gets sticks, so
          // naming it again is one flat-table load.
          daemon_->NameTag(tag, workload::TpcwName(req->type));
        }
        // mysqld's own shared-memory critical sections run as part of
        // query processing (§8.1); their emulation cost rides on the
        // query's CPU charge rather than a separate scheduler pass.
        bool writes = false;
        uint64_t row = 0;
        const auto steps = req->query.plan->steps();
        for (size_t i = 0; i < steps.size(); ++i) {
          if (steps[i].kind == db::QueryStep::Kind::kUpdateRow) {
            writes = true;
            row = req->query.rows[i];
          }
        }
        // Per-step frames: sorts, scans etc. appear as their own
        // procedures in the CCT, so the §1 "who causes the sort?"
        // query has something to point at.
        DbHooks hooks(*this, tp, RunDbGuestOps(index, writes, row));
        const sim::SimTime raw = co_await database_.Execute(req->query, tag, &hooks);
        if (sched_.now() >= options_.warmup && sched_.now() <= options_.duration) {
          db_cpu_ground_[static_cast<size_t>(req->type)] += raw;
        }
      }
      DbReply rep;
      rep.syn = mysql_.PrepareReply(tp);
      mysql_.AccountMessage(2048, WireBytes(rep.syn));
      mysql_.LiveLeave(tp);
      req->reply->Send(rep);
    }
  }

  // ---- Open-loop path (workload::ArrivalKind::kPoisson / kBursty) ----
  //
  // One generator coroutine stands in for ~10k logical clients: it
  // draws aggregate interarrival gaps and spawns one short-lived
  // request process per arrival. Reply channels are pooled (a freelist
  // of indices into client_reply_), so steady state allocates nothing
  // per request — frames and channels both recycle.

  size_t AcquireReplyChannel() {
    if (!reply_free_.empty()) {
      const size_t idx = reply_free_.back();
      reply_free_.pop_back();
      return idx;
    }
    client_reply_.push_back(std::make_unique<sim::Channel<ProxyReply>>(
        sched_, workload::kLanLatency));
    return client_reply_.size() - 1;
  }

  sim::Process OpenLoopRequest(ProxyRequest req) {
    const size_t ch_idx = AcquireReplyChannel();
    req.reply = client_reply_[ch_idx].get();
    const sim::SimTime start = sched_.now();
    proxy_ch_.Send(req);
    auto rep = co_await req.reply->Receive();
    reply_free_.push_back(ch_idx);
    if (!rep) {
      co_return;  // drained at shutdown
    }
    RecordInteraction(req.type, start);
  }

  sim::Process OpenLoopGenerator(double tps, uint64_t seed) {
    util::Rng base(seed);
    workload::ArrivalProcess arrivals(options_.arrivals, tps, base.NextU64());
    util::Rng mix(base.NextU64());
    for (;;) {
      co_await sim::Delay{sched_, arrivals.NextInterarrival()};
      if (sched_.now() >= options_.duration) {
        break;
      }
      sim::Spawn(sched_, OpenLoopRequest(DrawRequest(mix)));
    }
  }

  sim::Process Client(uint32_t index, uint64_t seed) {
    util::Rng rng(seed);
    auto& reply_ch = *client_reply_[index];
    for (;;) {
      co_await sim::Delay{
          sched_, static_cast<sim::SimTime>(rng.NextExponential(
                      static_cast<double>(workload::kTpcwThinkTimeMean)))};
      if (sched_.now() >= options_.duration) {
        break;
      }
      ProxyRequest req = DrawRequest(rng);
      req.reply = &reply_ch;
      const sim::SimTime start = sched_.now();
      proxy_ch_.Send(req);
      auto rep = co_await reply_ch.Receive();
      if (!rep) {
        break;
      }
      RecordInteraction(req.type, start);
    }
  }

  // whodunit_top's refresh loop: query + render + hand to the callback
  // at every poll interval while the workload runs.
  sim::Process LivePoller() {
    // Snapshot rows and the rendered string are members so every
    // refresh after the first reuses their capacity (no per-poll
    // allocation once row counts stabilize).
    for (;;) {
      co_await sim::Delay{sched_, options_.live_poll_interval};
      if (sched_.now() >= options_.duration) {
        break;
      }
      daemon_->Top(top_snap_);
      daemon_->RenderTop(top_snap_, top_text_);
      options_.on_live_top(top_text_);
    }
  }

  BookstoreOptions options_;
  sim::Scheduler sched_;
  sim::CpuResource proxy_cpu_;
  sim::CpuResource tomcat_cpu_;
  sim::CpuResource db_cpu_;
  profiler::Deployment dep_;
  StageProfiler& squid_;
  StageProfiler& tomcat_;
  StageProfiler& mysql_;
  db::Database database_;
  crosstalk::CrosstalkRecorder crosstalk_;
  std::unique_ptr<obs::live::Whodunitd> daemon_;
  // Interaction names pre-interned against the daemon's symbol table
  // (filled in the ctor when options.live); index by TpcwTransaction.
  std::array<obs::live::SymId, workload::kTpcwTransactionCount> tpcw_syms_{};
  // LivePoller's reused snapshot + render buffer.
  obs::live::Whodunitd::TopSnapshot top_snap_;
  std::string top_text_;

  sim::Channel<ProxyRequest> proxy_ch_;
  sim::Channel<TomcatRequest> tomcat_ch_;
  sim::Channel<DbRequest> db_ch_;

  callpath::FunctionId service_fn_ = 0, db_rpc_fn_ = 0, do_command_fn_ = 0, execute_fn_ = 0;
  std::array<callpath::FunctionId, 5> step_fns_{};  // indexed by QueryStep::Kind
  std::vector<callpath::FunctionId> servlet_fns_;

  std::vector<ThreadProfile*> squid_tps_, tomcat_tps_, mysql_tps_;
  std::vector<std::unique_ptr<sim::Channel<TomcatReply>>> proxy_reply_;
  std::vector<std::unique_ptr<sim::Channel<DbReply>>> tomcat_reply_;
  std::vector<std::unique_ptr<sim::Channel<ProxyReply>>> client_reply_;
  std::vector<size_t> reply_free_;  // open-loop reply-channel pool
  std::vector<std::unique_ptr<util::Rng>> tomcat_rngs_;

  static constexpr uint64_t kDbBufferLockId = 0xDB0F;
  static constexpr uint64_t kDbCounterLockId = 0xDB0C;
  static constexpr uint64_t kDbTableBase = 0xA000;
  static constexpr uint64_t kDbCounterAddr = 0x5000;
  std::unique_ptr<shm::FlowDetector> shm_detector_;
  vm::Interpreter interp_;
  shm::SectionCache section_cache_;
  vm::Memory guest_mem_;
  vm::Program table_read_prog_, table_write_prog_, counter_prog_;
  std::vector<vm::CpuState> guest_cpus_;  // indexed by vm::ThreadId (mysql worker)

  std::map<std::pair<TpcwTransaction, uint32_t>, sim::SimTime> result_cache_;
  std::array<util::SampleSet, workload::kTpcwTransactionCount> response_ms_;
  std::array<sim::SimTime, workload::kTpcwTransactionCount> db_cpu_ground_{};
  uint64_t interactions_ = 0;
};

BookstoreResult Bookstore::Run(profiler::ShardProfile* out_profile) {
  service_fn_ = tomcat_.RegisterFunction("service");
  db_rpc_fn_ = tomcat_.RegisterFunction("jdbc_execute");
  do_command_fn_ = mysql_.RegisterFunction("do_command");
  execute_fn_ = mysql_.RegisterFunction("mysql_execute");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kScan)] =
      mysql_.RegisterFunction("row_scan");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kSort)] =
      mysql_.RegisterFunction("sort_records");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kTempTable)] =
      mysql_.RegisterFunction("create_tmp_table");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kPointRead)] =
      mysql_.RegisterFunction("index_read");
  step_fns_[static_cast<size_t>(db::QueryStep::Kind::kUpdateRow)] =
      mysql_.RegisterFunction("update_row");
  for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
    servlet_fns_.push_back(tomcat_.RegisterFunction(
        std::string("servlet_") + workload::TpcwName(static_cast<TpcwTransaction>(t))));
  }

  util::Rng seeder(options_.seed);
  for (int i = 0; i < options_.proxy_workers; ++i) {
    squid_tps_.push_back(&squid_.CreateThread("squid_w" + std::to_string(i)));
    proxy_reply_.push_back(std::make_unique<sim::Channel<TomcatReply>>(
        sched_, workload::kLanLatency));
  }
  for (int i = 0; i < options_.tomcat_workers; ++i) {
    tomcat_tps_.push_back(&tomcat_.CreateThread("tomcat_w" + std::to_string(i)));
    tomcat_reply_.push_back(
        std::make_unique<sim::Channel<DbReply>>(sched_, workload::kLanLatency));
    tomcat_rngs_.push_back(std::make_unique<util::Rng>(seeder.NextU64()));
  }
  for (int i = 0; i < options_.db_workers; ++i) {
    mysql_tps_.push_back(&mysql_.CreateThread("mysql_w" + std::to_string(i)));
  }
  guest_cpus_.resize(mysql_tps_.size());
  for (int i = 0; i < options_.proxy_workers; ++i) {
    sim::Spawn(sched_, ProxyWorker(i));
  }
  for (int i = 0; i < options_.tomcat_workers; ++i) {
    sim::Spawn(sched_, TomcatWorker(i));
  }
  for (int i = 0; i < options_.db_workers; ++i) {
    sim::Spawn(sched_, DbWorker(i));
  }
  SpawnLoad(
      sched_, options_, workload::kTpcwThinkTimeMean, seeder,
      [this](uint32_t c, uint64_t seed) {
        client_reply_.push_back(
            std::make_unique<sim::Channel<ProxyReply>>(sched_, workload::kLanLatency));
        return Client(c, seed);
      },
      [this](double tps, uint64_t seed) { return OpenLoopGenerator(tps, seed); });
  // The refresh callback is not shard-safe, so shards never poll.
  if (daemon_ != nullptr && options_.on_live_top && dep_.shard_count() == 1) {
    sim::Spawn(sched_, LivePoller());
  }

  sched_.RunUntil(options_.duration);
  proxy_ch_.Close();
  tomcat_ch_.Close();
  db_ch_.Close();
  for (auto& ch : proxy_reply_) ch->Close();
  for (auto& ch : tomcat_reply_) ch->Close();
  for (auto& ch : client_reply_) ch->Close();
  sched_.Run();

  BookstoreResult result;
  result.interactions = interactions_;
  result.throughput_tpm =
      static_cast<double>(interactions_) /
      sim::ToSeconds(options_.duration - options_.warmup) * 60.0;

  // Per-type DB CPU shares derived from the mysql stage's CCT labels —
  // the Whodunit way: each label's description names the servlet whose
  // send created it.
  std::array<sim::SimTime, workload::kTpcwTransactionCount> label_cpu{};
  std::array<uint64_t, workload::kTpcwTransactionCount> type_tags{};
  std::array<bool, workload::kTpcwTransactionCount> tag_known{};
  for (const auto& [label, cct] : mysql_.LabeledCcts()) {
    const std::string desc = dep_.DescribeSynopsis(label);
    for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
      const std::string needle =
          std::string("servlet_") + workload::TpcwName(static_cast<TpcwTransaction>(t));
      if (desc.find(needle) != std::string::npos) {
        label_cpu[static_cast<size_t>(t)] += cct->TotalCpuTime();
        type_tags[static_cast<size_t>(t)] = mysql_.TagForLabel(label);
        tag_known[static_cast<size_t>(t)] = true;
        break;
      }
    }
  }
  for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
    auto& row = result.per_type[static_cast<size_t>(t)];
    row.count = response_ms_[static_cast<size_t>(t)].count();
    row.mean_response_ms = response_ms_[static_cast<size_t>(t)].mean();
    if (tag_known[static_cast<size_t>(t)]) {
      row.mean_crosstalk_ms =
          crosstalk_.MeanWaitAllAcquires(type_tags[static_cast<size_t>(t)]) / 1e6;
    }
    row.db_cpu_ns = static_cast<uint64_t>(label_cpu[static_cast<size_t>(t)]);
    row.db_cpu_ground_ns = static_cast<uint64_t>(db_cpu_ground_[static_cast<size_t>(t)]);
  }
  SetCpuPercents(&result);

  for (const auto& stage : dep_.stages()) {
    result.payload_bytes += stage->payload_bytes_sent();
    result.context_bytes += stage->context_bytes_sent();
  }
  result.db_shm_flows = shm_detector_ ? shm_detector_->flows_detected() : 0;
  result.db_shared_state_demoted =
      shm_detector_ != nullptr && shm_detector_->IsDemoted(kDbBufferLockId);
  result.db_utilization = db_cpu_.Utilization(options_.duration);
  result.tomcat_utilization = tomcat_cpu_.Utilization(options_.duration);
  result.proxy_utilization = proxy_cpu_.Utilization(options_.duration);
  result.db_profile_text = mysql_.RenderTransactionalProfile(0.001);
  profiler::Stitcher stitcher(dep_);
  result.stitched_text = stitcher.Render(0.02);
  result.stitched_dot = stitcher.RenderDot();
  profiler::Analysis analysis(dep_);
  result.who_causes_sort = analysis.RenderWhoCauses(mysql_, "sort_records");
  const auto tag_namer = [&](uint64_t tag) {
    for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
      if (tag_known[static_cast<size_t>(t)] && type_tags[static_cast<size_t>(t)] == tag) {
        return std::string(workload::TpcwName(static_cast<TpcwTransaction>(t)));
      }
    }
    return std::string("tag_") + std::to_string(tag);
  };
  result.crosstalk_text = crosstalk_.Render(tag_namer);
  if (out_profile != nullptr) {
    *out_profile = profiler::ExtractShardProfile(dep_, &crosstalk_, tag_namer);
  }
  SnapshotLive(daemon_.get(), sched_, &result);
  result.sim_events = sched_.events_executed();
  result.peak_event_queue_depth = sched_.queue_stats().peak_depth;
  return result;
}

BookstoreResult Bookstore::Merge(const std::vector<BookstoreResult>& shards,
                                 const profiler::MergedProfile& merged) {
  BookstoreResult out;
  for (const BookstoreResult& r : shards) {
    out.interactions += r.interactions;
    out.throughput_tpm += r.throughput_tpm;
    out.payload_bytes += r.payload_bytes;
    out.context_bytes += r.context_bytes;
    out.db_shm_flows += r.db_shm_flows;
    out.db_shared_state_demoted = out.db_shared_state_demoted || r.db_shared_state_demoted;
    out.db_utilization += r.db_utilization;
    out.tomcat_utilization += r.tomcat_utilization;
    out.proxy_utilization += r.proxy_utilization;
    out.sim_events += r.sim_events;
    out.peak_event_queue_depth += r.peak_event_queue_depth;
    for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
      auto& row = out.per_type[static_cast<size_t>(t)];
      const auto& shard_row = r.per_type[static_cast<size_t>(t)];
      row.mean_response_ms += shard_row.mean_response_ms * static_cast<double>(shard_row.count);
      row.count += shard_row.count;
      row.db_cpu_ns += shard_row.db_cpu_ns;
      row.db_cpu_ground_ns += shard_row.db_cpu_ground_ns;
    }
  }
  // Shard machines are replicas, so merged utilization is their mean.
  out.db_utilization /= static_cast<double>(shards.size());
  out.tomcat_utilization /= static_cast<double>(shards.size());
  out.proxy_utilization /= static_cast<double>(shards.size());
  SetCpuPercents(&out);
  for (int t = 0; t < workload::kTpcwTransactionCount; ++t) {
    auto& row = out.per_type[static_cast<size_t>(t)];
    if (row.count > 0) {
      row.mean_response_ms /= static_cast<double>(row.count);
    }
    const uint64_t tag =
        merged.MergedTag(workload::TpcwName(static_cast<TpcwTransaction>(t)));
    if (tag != profiler::MergedProfile::kNoMergedTag) {
      row.mean_crosstalk_ms = merged.crosstalk().MeanWaitAllAcquires(tag) / 1e6;
    }
  }
  out.db_profile_text = merged.RenderTransactionalProfile("mysql", 0.001);
  out.crosstalk_text = merged.RenderCrosstalk();
  out.stitched_dot = shards.front().stitched_dot;
  out.who_causes_sort = shards.front().who_causes_sort;
  return out;
}

}  // namespace

BookstoreResult RunBookstore(const BookstoreOptions& options) {
  return RunSharded<Bookstore>(options);
}

}  // namespace whodunit::apps
