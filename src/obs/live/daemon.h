// Live transaction observability: the in-process aggregation daemon.
//
// Whodunitd ("whodunit daemon") closes the gap between the paper's
// post-mortem reports and an always-on profiling service: while a run
// is still in flight, every stage publishes its completed transactions
// and the daemon maintains streaming state an operator can query at
// any virtual time.
//
// Dataflow:
//
//   StageProfiler publish hooks ──► builder slab (in-flight txns)
//          │ LiveComplete                    │ finished TxnEvent
//          ▼                                 ▼
//     TxnBatch (publish buffer) ──► sim::Channel<TxnBatch>
//                                        │ one wake per batch
//                                        ▼
//                                 Pump coroutine ──► LiveAggregator
//                                        │               ▲
//                                        ▼               │ query API
//                                 recent-event ring   whodunit_top,
//                                 (span export)       QueryJson()
//
// Publication rides the same sim::Channel plumbing as application
// messages, so ingest is ordered with the simulation and the daemon
// observes transactions exactly when a real collector process would.
// Completed events buffer into one daemon-wide TxnBatch flushed on a
// size or virtual-time threshold, so the pump wakes once per batch
// instead of once per transaction; the batch preserves completion
// order and the channel is FIFO, so aggregation order — and therefore
// every export — is invariant under the batch size
// (docs/OBSERVABILITY.md "Batching and determinism").
//
// The publish path is allocation-free in steady state: names are
// interned SymIds (symbol_table.h), span/open/batch storage is pooled
// (util/pooled_vec.h), and the hot hooks take SymIds — the
// string_view overloads exist for tests and one-shot callers and pay
// one hash lookup. The query side (Top/RenderTop/QueryJson/
// ExportSpansJson) is the "wire" API whodunit_top polls; the *Into
// variants refill caller-owned buffers so a refresh loop is
// allocation-quiet once warm.
#ifndef SRC_OBS_LIVE_DAEMON_H_
#define SRC_OBS_LIVE_DAEMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/live/aggregator.h"
#include "src/obs/live/attribution.h"
#include "src/obs/live/history.h"
#include "src/obs/live/symbol_table.h"
#include "src/obs/live/txn_event.h"
#include "src/obs/metrics.h"
#include "src/sim/channel.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/util/ring_queue.h"
#include "src/util/robin_hood.h"

namespace whodunit::obs::live {

struct LiveOptions {
  // In-flight transaction cap; BeginTxn beyond it drops the txn (the
  // daemon must never be the memory leak it is meant to expose).
  size_t max_inflight = 4096;
  // Completed events retained for span export, newest last.
  size_t span_ring = 128;
  // Byte budget of the retention-bounded history store (history.h);
  // 0 disables it. The --history-bytes knob on the apps.
  size_t history_bytes = 1 << 20;
  // Virtual-time flush interval of the history store.
  int64_t history_flush_interval_ns = 30'000'000'000;
  // Critical-path wait-state attribution (attribution.h) of every
  // published event; feeds the attr tables, --why-tail, and the
  // whodunit-attr-v1 folded export.
  bool attribution = true;
  // Publish batching: completed events buffer until this many are
  // pending (1 = unbatched, every completion crosses the channel
  // alone). The --publish-batch knob on the apps.
  size_t publish_batch = 64;
  // A partial batch is flushed once this much virtual time has passed
  // since it opened, so a quiet period cannot delay ingest forever.
  int64_t publish_flush_interval_ns = 100'000'000;
};

// How a transaction ended, handed to Whodunitd::CompleteTxn.
struct TxnEnd {
  // Interned origin context at completion (the event's root_ctxt).
  context::NodeId ctxt = context::kEmptyContext;
  bool error = false;
  // The completing stage's own measurements, added to its most recent
  // open span before every open span closes.
  SymId stage = 0;
  SpanWaits waits = {};
};

class Whodunitd {
 public:
  explicit Whodunitd(sim::Scheduler& sched, LiveOptions options = {});
  Whodunitd(const Whodunitd&) = delete;
  Whodunitd& operator=(const Whodunitd&) = delete;
  ~Whodunitd();

  // Virtual time, for publishers that don't hold the scheduler.
  int64_t now() const { return sched_.now(); }

  // The symbol table this daemon's SymIds resolve through (the
  // thread-current table at construction). Publishers intern their
  // stable names here once at wiring time.
  SymbolTable& symbols() const { return *syms_; }

  // ---- Publish hooks (called by StageProfiler and apps) --------------
  // SymId forms are the hot path: pure integer work, no hashing, no
  // allocation in steady state. The string_view forms intern first.
  // Each hook finds the transaction's builder once, so a stage
  // transition (begin, join, leave, complete) costs one lookup.
  //
  // Opens a transaction of `type` (0 = untyped until SetTxnType) and
  // its origin span; returns the live txn id (0 = dropped: over the
  // in-flight cap). All later hooks no-op on 0 and on ids that are no
  // longer in flight.
  uint64_t BeginTxn(SymId origin_stage, SymId type, int64_t now);
  uint64_t BeginTxn(std::string_view origin_stage, std::string_view type, int64_t now) {
    return BeginTxn(syms_->Intern(origin_stage), syms_->Intern(type), now);
  }
  // Re-labels an in-flight transaction (e.g. once a cache stage knows
  // hit vs. miss).
  void SetTxnType(uint64_t txn, SymId type);
  void SetTxnType(uint64_t txn, std::string_view type) {
    SetTxnType(txn, syms_->Intern(type));
  }
  // Opens one stage's span for `txn`; `link` is the synopsis part on
  // the message that carried the work here (0 = none). `queue_ns` is
  // the measured queue residency of that message before this span
  // started, and `ctxt` the interned context the span runs under —
  // both feed the wait-state attribution (attribution.h).
  void JoinSpan(uint64_t txn, SymId stage, uint32_t link, int64_t now,
                int64_t queue_ns = 0, context::NodeId ctxt = context::kEmptyContext);
  void JoinSpan(uint64_t txn, std::string_view stage, uint32_t link, int64_t now,
                int64_t queue_ns = 0, context::NodeId ctxt = context::kEmptyContext) {
    JoinSpan(txn, syms_->Intern(stage), link, now, queue_ns, ctxt);
  }
  // Records that the stage's open span sent a request carrying
  // synopsis part `link` (joins link arrows at the receiver).
  void NoteSend(uint64_t txn, SymId stage, uint32_t link);
  void NoteSend(uint64_t txn, std::string_view stage, uint32_t link) {
    NoteSend(txn, syms_->Intern(stage), link);
  }
  // Closes the most recent open span of `stage` for `txn`, adding the
  // wait-state components the stage measured over the span.
  void EndSpan(uint64_t txn, SymId stage, int64_t now, SpanWaits waits = {});
  void EndSpan(uint64_t txn, std::string_view stage, int64_t now, SpanWaits waits = {}) {
    EndSpan(txn, syms_->Intern(stage), now, waits);
  }
  // Stamps the end time and `end`, closes any still-open spans, and
  // appends the finished event to the publish batch (flushed to the
  // aggregation channel on the size/interval thresholds above).
  void CompleteTxn(uint64_t txn, int64_t now, const TxnEnd& end = {});
  // Direct streaming inputs that bypass the txn builder:
  void AddCost(context::NodeId ctxt, uint64_t cost_ns) { agg_.AddCost(ctxt, cost_ns); }
  void NameTag(uint64_t tag, std::string_view name) { agg_.NameTag(tag, name); }
  void IngestWait(uint64_t waiter, uint64_t holder, uint64_t wait_ns) {
    agg_.IngestWait(waiter, holder, wait_ns);
  }

  // Called before every query snapshot so stages can flush their
  // batched per-thread cost accumulators (set by Deployment).
  void set_flush_hook(std::function<void()> hook) { flush_hook_ = std::move(hook); }
  // Renders an interned context NodeId for reports (set by the app's
  // wiring; defaults to "ctxt_<id>").
  void set_ctxt_namer(std::function<std::string(context::NodeId)> namer) {
    ctxt_namer_ = std::move(namer);
  }

  // ---- Query API ------------------------------------------------------
  struct TopSnapshot {
    int64_t as_of_ns = 0;
    uint64_t txns = 0;
    uint64_t errors = 0;
    uint64_t inflight = 0;
    // Production sampling (docs/PRODUCTION.md): deployment-wide coin
    // flips vs. transactions chosen since this daemon started, read
    // from the sampling.* counters of its registry.
    uint64_t sampling_total = 0;
    uint64_t sampling_sampled = 0;
    // Bounded history store occupancy and churn.
    uint64_t history_txns = 0;
    uint64_t history_bytes = 0;
    uint64_t history_evicted = 0;
    std::vector<LiveAggregator::TypeRow> types;
    std::vector<LiveAggregator::StageRow> stages;
    std::vector<LiveAggregator::PairRow> crosstalk;
    std::vector<LiveAggregator::CtxtRow> contexts;
  };
  // Refills a caller-owned snapshot in place (row/string capacity is
  // reused across refreshes — the whodunit_top poll loop).
  void Top(TopSnapshot& snap, size_t max_types = 20, size_t max_contexts = 10) const;
  TopSnapshot Top(size_t max_types = 20, size_t max_contexts = 10) const {
    TopSnapshot snap;
    Top(snap, max_types, max_contexts);
    return snap;
  }
  // The refreshing whodunit_top table: per-type latency quantiles,
  // stage throughput, crosstalk pairs, top contexts by cost. The
  // out-param form clears and refills `out`, reusing its capacity.
  void RenderTop(const TopSnapshot& snap, std::string& out) const;
  std::string RenderTop(const TopSnapshot& snap) const {
    std::string out;
    RenderTop(snap, out);
    return out;
  }
  std::string RenderTop(size_t max_types = 20, size_t max_contexts = 10) const {
    return RenderTop(Top(max_types, max_contexts));
  }
  // The same snapshot as machine-readable JSON (schema in
  // docs/OBSERVABILITY.md).
  std::string QueryJson(size_t max_types = 20, size_t max_contexts = 10) const;
  // Chrome trace JSON of the retained completed transactions.
  std::string ExportSpansJson() const;
  std::vector<TxnEvent> RecentEvents() const;

  // ---- Tail diagnosis (docs/OBSERVABILITY.md "--why-tail") -----------
  // Where the tail spends its extra time: per (stage, wait-state) mean
  // critical-path cost in the fast (<= fast_q latency) vs. tail
  // (>= tail_q latency) transactions of one type, from the retained
  // history.
  struct WhyTailDelta {
    std::string stage;
    WaitState state = WaitState::kSchedOther;
    double fast_ms = 0;
    double tail_ms = 0;
    double delta_ms = 0;  // tail_ms - fast_ms
  };
  struct WhyTailType {
    std::string type;
    uint64_t fast_txns = 0;
    uint64_t tail_txns = 0;
    double fast_ms = 0;   // mean end-to-end latency of the fast group
    double tail_ms = 0;   // mean end-to-end latency of the tail group
    std::vector<WhyTailDelta> deltas;  // delta-descending
  };
  // Computes the p99-vs-p50 differential report over the retained
  // history (empty when history is off or not yet flushed).
  std::vector<WhyTailType> WhyTail(double fast_q = 0.5,
                                   double tail_q = 0.99) const;
  // Human-readable rendering of WhyTail() for whodunit_top --why-tail.
  std::string RenderWhyTail() const;
  // Folded-stack flamegraph export (whodunit-attr-v1,
  // docs/PROFILE_FORMAT.md): "type;stage;state <ns>" per line.
  std::string ExportAttrFolded() const { return agg_.ExportAttrFolded(); }
  // Dump of the retention-bounded history (whodunit-history-v1).
  std::string ExportHistoryJson() const { return history_.ExportJson(); }

  const LiveAggregator& aggregator() const { return agg_; }
  const TxnHistory& history() const { return history_; }
  uint64_t inflight() const { return slot_of_.size(); }

  // Flushes the partial publish batch, closes the publish channel so
  // the pump coroutine drains and exits; call before the final
  // scheduler drain at end of run. In-flight (never completed)
  // transactions are dropped and counted. Queries that must reflect
  // every published event (end-of-run exports, golden comparisons)
  // run after Shutdown() plus one scheduler drain.
  void Shutdown();

 private:
  // One open span, innermost last. The stage rides along so finding a
  // stage's open span never touches the event's span block.
  struct OpenSpan {
    int32_t span;   // index into event.spans
    uint32_t link;  // last request link the span sent (joins arrows at the receiver)
    SymId stage;
  };
  // One in-flight transaction. Builders live in a slot slab and are
  // reused in place after completion: the event's span block travels
  // with the published event, the open list keeps its block.
  struct Builder {
    TxnEvent event;
    util::PooledVec<OpenSpan> open;
  };

  // The in-flight builder of `txn`, or nullptr (dropped, completed,
  // abandoned, or never begun).
  Builder* Find(uint64_t txn) {
    const uint32_t* slot = slot_of_.Find(txn);
    return slot != nullptr ? &slots_[*slot] : nullptr;
  }
  // Index into b.open of the most recent open span of `stage`, or -1.
  static int32_t InnermostOpen(const Builder& b, SymId stage);
  sim::Process Pump();
  // Sends the pending batch (if any) to the aggregation channel.
  void FlushBatch();

  sim::Scheduler& sched_;
  LiveOptions options_;
  sim::Channel<TxnBatch> ch_;
  LiveAggregator agg_;
  // Reused across every published event the pump attributes.
  AttrScratch attr_scratch_;
  // Session high-water attr-block capacity. Every attributed event's
  // block is pre-sized to this before attribution, so all records'
  // attr blocks land in the same arena size class — see Pump.
  size_t attr_cap_highwater_ = 0;
  TxnHistory history_;
  // Builder slab: slots_ only grows (up to max_inflight live slots),
  // free_slots_ holds the reusable ones, slot_of_ maps txn id -> slot.
  std::vector<Builder> slots_;
  std::vector<uint32_t> free_slots_;
  util::RobinHoodMap<uint64_t, uint32_t> slot_of_;
  // Completed-but-unflushed events, completion order; one Send per
  // flush.
  TxnBatch batch_;
  int64_t batch_opened_ns_ = 0;
  util::RingQueue<TxnEvent> recent_;
  uint64_t next_txn_ = 1;
  bool shutdown_ = false;
  std::function<void()> flush_hook_;
  std::function<std::string(context::NodeId)> ctxt_namer_;

  SymbolTable* syms_ = &Syms();
  Counter* obs_begun_;
  Counter* obs_dropped_;
  Counter* obs_abandoned_;
  Counter* obs_published_;
  Counter* obs_batches_;
  Gauge* obs_inflight_;
  // The deployment's sampling counters (shared by name with
  // SamplingPolicy through this daemon's registry), read at snapshot
  // time for the sampled-vs-total display. The registry outlives the
  // daemon (a process may run several deployments in turn), so the
  // display shows the growth since this daemon's construction.
  Counter* obs_sampling_total_;
  Counter* obs_sampling_sampled_;
  uint64_t sampling_total_base_;
  uint64_t sampling_sampled_base_;
};

}  // namespace whodunit::obs::live

#endif  // SRC_OBS_LIVE_DAEMON_H_
