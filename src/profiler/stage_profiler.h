// Whodunit's per-stage run-time (paper §7).
//
// One StageProfiler profiles one stage (one simulated process). It
// owns:
//   * a dictionary of CCTs labeled by transaction-context synopsis;
//     the executing thread's samples accumulate in the CCT matching
//     its current transaction context (§7.1);
//   * the send/receive context machinery: PrepareSend computes the
//     synopsis at the send point and OnReceive either adopts a request
//     context or recognizes a response by the prefix rule (§5, §7.4);
//   * the bridge to the shared-memory flow detector: CurrentCtxtId
//     snapshots the executing thread's full context for produce
//     points, AdoptCtxt makes a consumer continue the producer's
//     transaction (§3.5);
//   * profiling-cost accounting per §9: sampling cost per sample,
//     per-call cost in gprof mode, per-message context cost.
#ifndef SRC_PROFILER_STAGE_PROFILER_H_
#define SRC_PROFILER_STAGE_PROFILER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/callpath/cct.h"
#include "src/callpath/profiler_mode.h"
#include "src/obs/metrics.h"
#include "src/callpath/sampler.h"
#include "src/callpath/shadow_stack.h"
#include "src/context/context_tree.h"
#include "src/context/synopsis.h"
#include "src/context/transaction_context.h"
#include "src/profiler/deployment.h"
#include "src/sim/time.h"

namespace whodunit::obs::live {
class Whodunitd;
struct SpanWaits;
}  // namespace whodunit::obs::live

namespace whodunit::profiler {

// Profiling state of one simulated thread of control (a worker thread,
// an event loop, a SEDA stage worker).
class ThreadProfile {
 public:
  explicit ThreadProfile(std::string name, sim::SimTime sample_period)
      : name_(std::move(name)), sampler_(sample_period) {}

  const std::string& name() const { return name_; }
  const callpath::ShadowStack& stack() const { return stack_; }
  const context::Synopsis& incoming() const { return incoming_; }
  context::NodeId local_node() const { return local_node_; }
  context::TransactionContext local_context() const {
    return context::GlobalContextTree().Materialize(local_node_);
  }

 private:
  friend class StageProfiler;

  struct SavedState {
    context::Synopsis incoming;
    context::NodeId local_node;
  };

  std::string name_;
  callpath::ShadowStack stack_;
  callpath::Sampler sampler_;
  // κ: transaction context inherited from other stages, as a synopsis.
  context::Synopsis incoming_;
  // Locally accumulated context elements (handlers, stages, adopted
  // shared-memory flows), interned into the global context tree.
  context::NodeId local_node_ = context::kEmptyContext;
  // Outstanding requests: sent synopsis -> state to restore when the
  // matching response arrives.
  std::vector<std::pair<context::Synopsis, SavedState>> pending_sends_;
  context::Synopsis current_label_;
  bool label_valid_ = false;
  // Production sampling (docs/PRODUCTION.md): whether the transaction
  // this thread is currently executing was chosen by the deployment's
  // SamplingPolicy. Starts true so non-transactional modes (gprof,
  // csprof) and rate-1.0 runs behave exactly as before sampling
  // existed.
  bool sampled_ = true;
  uint64_t uncharged_pushes_ = 0;
  uint64_t uncharged_messages_ = 0;
  // Live-observability state: the daemon transaction this thread is
  // currently executing, the interned full-context node the thread's
  // CPU charges accrue to, and the batched not-yet-published cost.
  uint64_t live_txn_ = 0;
  context::NodeId live_ctxt_node_ = context::kEmptyContext;
  sim::SimTime live_cost_acc_ = 0;
  // Wait-state measurements of the thread's current live span
  // (docs/OBSERVABILITY.md taxonomy): CPU charged and lock wait
  // incurred since the span opened, flushed to the daemon as the span
  // closes.
  sim::SimTime live_span_service_ = 0;
  sim::SimTime live_span_lock_ = 0;
};

class StageProfiler {
 public:
  struct Options {
    std::string name;
    callpath::ProfilerMode mode = callpath::ProfilerMode::kWhodunit;
    callpath::ProfilerCosts costs;
    // The paper samples at gprof's default, 666 Hz.
    sim::SimTime sample_period = 1501501;
  };

  StageProfiler(Deployment& deployment, Options options);

  const std::string& name() const { return options_.name; }
  callpath::ProfilerMode mode() const { return options_.mode; }
  Deployment& deployment() { return deployment_; }
  const Deployment& deployment() const { return deployment_; }

  // ---- Thread and call-path structure -------------------------------
  ThreadProfile& CreateThread(std::string name);
  callpath::FunctionId RegisterFunction(std::string_view fn_name);

  // RAII procedure frame; apps mark their procedure structure with it.
  class FrameGuard {
   public:
    FrameGuard(StageProfiler& prof, ThreadProfile& tp, callpath::FunctionId fn);
    ~FrameGuard();
    FrameGuard(const FrameGuard&) = delete;
    FrameGuard& operator=(const FrameGuard&) = delete;

   private:
    StageProfiler& prof_;
    ThreadProfile& tp_;
  };
  FrameGuard EnterFrame(ThreadProfile& tp, callpath::FunctionId fn) {
    return FrameGuard(*this, tp, fn);
  }

  // Records `n` procedure entries executed by un-instrumented-at-
  // source internal code (the database's per-row handler functions).
  // They cost nothing under sampling profilers but pay gprof's mcount
  // like any other call — the effect behind Table 2's gprof column.
  void NoteInternalCalls(ThreadProfile& tp, uint64_t n) {
    if (callpath::CountsCalls(options_.mode)) {
      tp.uncharged_pushes_ += n;
    }
  }

  // ---- CPU accounting ------------------------------------------------
  // Returns app_cost plus the profiling overhead incurred (sampling
  // handlers, gprof mcount work, pending message-context costs); the
  // app charges the returned total to its CpuResource. Samples are
  // attributed to the thread's current CCT node.
  sim::SimTime ChargeCpu(ThreadProfile& tp, sim::SimTime app_cost);

  // ---- Transaction contexts (events / SEDA / fresh requests) ---------
  // Replaces the thread's locally accumulated context (the event/SEDA
  // libraries feed their current node through this). The NodeId form is
  // the hot path; the value form interns first.
  void SetLocalContext(ThreadProfile& tp, context::NodeId node);
  void SetLocalContext(ThreadProfile& tp, const context::TransactionContext& ctxt) {
    SetLocalContext(tp, context::GlobalContextTree().Intern(ctxt));
  }
  // Begins a fresh top-level transaction at an origin stage. Draws the
  // deployment's per-transaction sampling decision: an unsampled
  // transaction pays only that coin flip — PrepareSend emits no
  // synopsis, ChargeCpu skips the sampler and live batching, LiveBegin
  // returns 0 — until the next ResetTransaction/OnReceive.
  void ResetTransaction(ThreadProfile& tp);

  // ---- Production sampling (docs/PRODUCTION.md) -----------------------
  // Whether the thread's current transaction is being profiled. Apps
  // gate their shm-emulation and crosstalk hooks on this so unsampled
  // transactions skip the flow detector entirely.
  bool IsSampled(const ThreadProfile& tp) const { return tp.sampled_; }
  // Restores the sampling bit on a thread that picked up work through
  // an un-instrumented channel (an app-level queue carrying the bit
  // alongside the payload instead of a synopsis).
  void SetSampled(ThreadProfile& tp, bool sampled) { tp.sampled_ = sampled; }

  // ---- Messaging (§5, §7.4) ------------------------------------------
  // Computes the synopsis to piggy-back on an outgoing request and
  // saves state so the response can restore it. For one-way sends or
  // responses pass expect_response = false.
  context::Synopsis PrepareSend(ThreadProfile& tp, bool expect_response = true);
  // Handles a piggy-backed synopsis on receive: recognizes responses
  // by the prefix rule (restoring the saved context), otherwise adopts
  // the request context. Returns true if it was a response.
  bool OnReceive(ThreadProfile& tp, const context::Synopsis& synopsis);

  // ---- Shared-memory flow (§3.5) --------------------------------------
  // Snapshot of the thread's full current context (including its call
  // path), as a dense id for the flow detector's dictionary.
  uint32_t CurrentCtxtId(ThreadProfile& tp);
  // Consumer side of a detected flow: continue the producer's
  // transaction from here on.
  void AdoptCtxt(ThreadProfile& tp, uint32_t ctxt_id);
  const context::Synopsis& SynopsisOfCtxtId(uint32_t ctxt_id) const;

  // ---- Crosstalk ------------------------------------------------------
  // Tag identifying the thread's current transaction type for lock
  // instrumentation (resolve back with SynopsisOfCtxtId).
  uint64_t CrosstalkTag(ThreadProfile& tp);
  // The tag a thread running under `label` would report — lets report
  // generators join crosstalk rows with CCT labels.
  uint64_t TagForLabel(const context::Synopsis& label) { return InternCtxt(label); }

  // ---- Live observability (src/obs/live) ------------------------------
  // When a Whodunitd is attached (normally via Deployment::AttachLive),
  // the stage publishes transaction lifecycle events and batched CPU
  // costs to it. All hooks are no-ops when detached — a single null
  // check on the publish path. Attaching interns the stage's name into
  // the daemon's symbol table once, so every later hook passes a
  // 32-bit SymId instead of a string.
  void AttachLive(obs::live::Whodunitd* live);
  obs::live::Whodunitd* live() const { return live_; }
  // Origin stage: opens a live transaction of the given type on this
  // thread (call after ResetTransaction). Returns the live txn id to
  // thread through the app's messages (0 = daemon off or overloaded).
  // The SymId form is the steady-state path; apps intern their type
  // names once at wiring time (live()->symbols().Intern(...)).
  uint64_t LiveBegin(ThreadProfile& tp, uint32_t type_sym);
  uint64_t LiveBegin(ThreadProfile& tp, std::string_view type);
  // Non-origin stage: joins the thread to a transaction carried here
  // by a message (call after OnReceive; the innermost incoming synopsis
  // part becomes the span's link). `queue_ns` is the measured queue
  // residency of the message that carried the work here — it becomes
  // the span's kQueueWait attribution.
  void LiveJoin(ThreadProfile& tp, uint64_t txn, sim::SimTime queue_ns = 0);
  // Closes this stage's span (the thread is done with the txn here).
  void LiveLeave(ThreadProfile& tp);
  // Origin stage, transaction finished end-to-end: publishes it.
  void LiveComplete(ThreadProfile& tp, bool error = false);
  // Re-labels the thread's current live transaction (e.g. once a cache
  // stage knows hit vs. miss).
  void LiveType(ThreadProfile& tp, uint32_t type_sym);
  void LiveType(ThreadProfile& tp, std::string_view type);
  // Accumulates measured lock wait onto the thread's current live span
  // (fed by resource acquire paths, e.g. Database::Execute).
  void LiveLockWait(ThreadProfile& tp, sim::SimTime wait_ns);
  uint64_t live_txn(const ThreadProfile& tp) const { return tp.live_txn_; }
  // Publishes every thread's batched CPU cost to the daemon; the
  // daemon invokes this (via Deployment's flush hook) before answering
  // a query so snapshots are current.
  void FlushLive();

  // ---- Message byte accounting (§9.1) ---------------------------------
  void AccountMessage(size_t payload_bytes, size_t context_bytes);
  uint64_t payload_bytes_sent() const { return payload_bytes_; }
  uint64_t context_bytes_sent() const { return context_bytes_; }

  // ---- Results ---------------------------------------------------------
  // CCT for a given transaction-context label (nullptr if absent).
  const callpath::CallingContextTree* FindCct(const context::Synopsis& label) const;
  // All labels with their CCTs, in a deterministic order.
  std::vector<std::pair<context::Synopsis, const callpath::CallingContextTree*>> LabeledCcts()
      const;
  uint64_t total_samples() const;
  sim::SimTime total_cpu_time() const;

  // Renders the stage's transactional profile: one section per
  // transaction context, with the CCT and its share of stage CPU.
  std::string RenderTransactionalProfile(double min_fraction = 0.0) const;

  // A gprof-style flat profile over ALL contexts: functions ranked by
  // exclusive CPU time, with call counts. What a conventional profiler
  // would report — useful as the "before" view next to the
  // transactional profile.
  std::string RenderFlatProfile(size_t max_rows = 20) const;

 private:
  friend class FrameGuard;

  callpath::CallingContextTree& CctFor(const context::Synopsis& label);
  context::Synopsis ComputeLabel(const ThreadProfile& tp);
  void UpdateCct(ThreadProfile& tp);
  // Interned full-context node (the label's parts concatenated: the
  // incoming parts, then the local elements) a thread running under
  // `label` attributes its live CPU costs to. A pure function of the
  // label, so each label's node is computed once.
  context::NodeId LiveCtxtNode(const context::Synopsis& label);
  void FlushLiveCost(ThreadProfile& tp);
  // The span's accumulated service/lock-wait measurements, reset for
  // the next span; handed to the daemon as the span closes.
  static obs::live::SpanWaits TakeSpanWaits(ThreadProfile& tp);
  // The thread's full context including its current call path.
  context::Synopsis FullSynopsis(ThreadProfile& tp);
  uint32_t InternCtxt(const context::Synopsis& synopsis);

  Deployment& deployment_;
  Options options_;
  obs::live::Whodunitd* live_ = nullptr;
  // This stage's name interned into the attached daemon's symbol table
  // (obs::live::SymId; valid while live_ != nullptr). Every publish
  // hook passes it instead of options_.name.
  uint32_t live_name_sym_ = 0;
  std::vector<std::unique_ptr<ThreadProfile>> threads_;
  std::unordered_map<context::Synopsis, std::unique_ptr<callpath::CallingContextTree>,
                     context::SynopsisHash>
      ccts_;
  // LiveCtxtNode's memo: label -> interned full-context node.
  std::unordered_map<context::Synopsis, context::NodeId, context::SynopsisHash> live_nodes_;
  // Dense ids for full-context snapshots handed to the flow detector
  // and the crosstalk recorder.
  std::unordered_map<context::Synopsis, uint32_t, context::SynopsisHash> ctxt_ids_;
  std::vector<context::Synopsis> ctxt_table_;

  uint64_t payload_bytes_ = 0;
  uint64_t context_bytes_ = 0;

  // Resolved against obs::Registry() at construction so profilers built
  // inside a shard isolate report into that shard's registry (a
  // function-local static would capture whichever registry the first
  // profiler ever saw).
  obs::Counter* obs_sends_;
  obs::Counter* obs_matches_;
  obs::Counter* obs_misses_;
  obs::Counter* obs_adoptions_;
  obs::Counter* obs_switches_;
  obs::Counter* obs_suppressed_;
};

}  // namespace whodunit::profiler

#endif  // SRC_PROFILER_STAGE_PROFILER_H_
