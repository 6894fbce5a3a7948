#include "src/profiler/stage_profiler.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/obs/live/daemon.h"
#include "src/obs/metrics.h"

namespace whodunit::profiler {

using callpath::CountsCalls;
using callpath::Samples;
using callpath::TracksTransactions;

namespace {

// The slot for `id` in a per-label table, growing the table with
// `fill` entries to cover it.
uint32_t& SlotFor(std::vector<uint32_t>& table, context::SynopsisId id, uint32_t fill) {
  if (id >= table.size()) {
    table.resize(size_t{id} + 1, fill);
  }
  return table[id];
}

}  // namespace

StageProfiler::StageProfiler(Deployment& deployment, Options options)
    : deployment_(deployment),
      options_(std::move(options)),
      obs_sends_(&obs::Registry().GetCounter("profiler.sends_prepared")),
      obs_matches_(&obs::Registry().GetCounter("profiler.synopsis_matches")),
      obs_misses_(&obs::Registry().GetCounter("profiler.synopsis_misses")),
      obs_adoptions_(&obs::Registry().GetCounter("profiler.flow_adoptions")),
      obs_switches_(&obs::Registry().GetCounter("profiler.cct_switches")),
      obs_suppressed_(&obs::Registry().GetCounter("sampling.sends_suppressed")) {}

ThreadProfile& StageProfiler::CreateThread(std::string thread_name) {
  threads_.push_back(
      std::make_unique<ThreadProfile>(std::move(thread_name), options_.sample_period));
  ThreadProfile& tp = *threads_.back();
  UpdateCct(tp);
  return tp;
}

callpath::FunctionId StageProfiler::RegisterFunction(std::string_view fn_name) {
  return deployment_.functions().Register(fn_name);
}

StageProfiler::FrameGuard::FrameGuard(StageProfiler& prof, ThreadProfile& tp,
                                      callpath::FunctionId fn)
    : prof_(prof), tp_(tp) {
  tp_.stack_.Push(fn);
  if (CountsCalls(prof_.options_.mode)) {
    ++tp_.uncharged_pushes_;
  }
}

StageProfiler::FrameGuard::~FrameGuard() { tp_.stack_.Pop(); }

sim::SimTime StageProfiler::ChargeCpu(ThreadProfile& tp, sim::SimTime app_cost) {
  sim::SimTime total = app_cost;
  if (options_.mode == callpath::ProfilerMode::kNone) {
    return total;
  }
  // gprof's mcount: a fixed cost per procedure entry since last charge.
  if (CountsCalls(options_.mode) && tp.uncharged_pushes_ > 0) {
    total += static_cast<sim::SimTime>(tp.uncharged_pushes_) * options_.costs.per_call;
    tp.uncharged_pushes_ = 0;
  }
  // Whodunit's synopsis computation/propagation per message.
  if (TracksTransactions(options_.mode) && tp.uncharged_messages_ > 0) {
    total +=
        static_cast<sim::SimTime>(tp.uncharged_messages_) * options_.costs.per_message_context;
    tp.uncharged_messages_ = 0;
  }
  if (Samples(options_.mode) && tp.sampled_) {
    const uint64_t before = tp.sampler_.samples_taken();
    tp.sampler_.OnCpu(tp.stack_, app_cost);
    const uint64_t fired = tp.sampler_.samples_taken() - before;
    total += static_cast<sim::SimTime>(fired) * options_.costs.per_sample;
  }
  // Live observability: batch the app cost against the thread's current
  // context node; UpdateCct / FlushLive publish the batch. Within a
  // live span the same cost also accumulates as the span's kService
  // wait-state measurement (flushed as the span closes).
  if (live_ != nullptr && tp.sampled_) {
    tp.live_cost_acc_ += app_cost;
    if (tp.live_txn_ != 0) {
      tp.live_span_service_ += app_cost;
    }
  }
  return total;
}

void StageProfiler::SetLocalContext(ThreadProfile& tp, context::NodeId node) {
  if (!TracksTransactions(options_.mode)) {
    return;
  }
  tp.local_node_ = node;
  UpdateCct(tp);
}

void StageProfiler::ResetTransaction(ThreadProfile& tp) {
  if (!TracksTransactions(options_.mode)) {
    return;
  }
  tp.incoming_ = context::kEmptySynopsis;
  tp.local_node_ = context::kEmptyContext;
  tp.pending_sends_.clear();
  tp.sampled_ = deployment_.sampling().Decide();
  UpdateCct(tp);
}

context::SynopsisId StageProfiler::SendSynopsis(ThreadProfile& tp) {
  if (!TracksTransactions(options_.mode)) {
    return context::kEmptySynopsis;
  }
  // Unsampled transaction: piggy-back nothing. A sampled send always
  // carries at least one part, so the receiver reads an empty wire
  // synopsis unambiguously as "unsampled" (OnReceive below). No
  // dictionary work, no pending-send state, no per-message cost.
  if (!tp.sampled_) {
    obs_suppressed_->Add();
    return context::kEmptySynopsis;
  }
  obs_sends_->Add();
  ++tp.uncharged_messages_;
  return FullSynopsis(tp);
}

context::SynopsisId StageProfiler::PrepareSend(ThreadProfile& tp) {
  const context::SynopsisId wire = SendSynopsis(tp);
  if (wire == context::kEmptySynopsis) {
    return wire;
  }
  tp.pending_sends_.push_back(ThreadProfile::PendingSend{wire, tp.incoming_, tp.local_node_});
  if (live_ != nullptr && tp.live_txn_ != 0) {
    live_->NoteSend(tp.live_txn_, live_name_sym_,
                    deployment_.synopsis_table().LastPart(wire));
  }
  return wire;
}

context::SynopsisId StageProfiler::PrepareReply(ThreadProfile& tp) { return SendSynopsis(tp); }

bool StageProfiler::OnReceive(ThreadProfile& tp, context::SynopsisId synopsis) {
  if (!TracksTransactions(options_.mode)) {
    return false;
  }
  // An empty wire synopsis under active sampling means the sender's
  // transaction was unsampled (PrepareSend above): carry the unsampled
  // state across the hop and skip the context machinery. Gated on
  // always_on so rate-1.0 deployments keep the historical
  // adopt-empty-context behaviour byte for byte.
  if (synopsis == context::kEmptySynopsis && !deployment_.sampling().always_on()) {
    tp.sampled_ = false;
    tp.pending_sends_.clear();
    return false;
  }
  tp.sampled_ = true;
  ++tp.uncharged_messages_;
  // Response recognition (§5): a message whose synopsis extends one we
  // sent is the reply to that request; restore the context we had when
  // we issued it.
  const context::SynopsisTable& table = deployment_.synopsis_table();
  for (auto it = tp.pending_sends_.begin(); it != tp.pending_sends_.end(); ++it) {
    if (synopsis != it->wire && table.HasPrefix(synopsis, it->wire)) {
      tp.incoming_ = it->incoming;
      tp.local_node_ = it->local_node;
      tp.pending_sends_.erase(it);
      UpdateCct(tp);
      obs_matches_->Add();
      return true;
    }
  }
  // New request: adopt the sender's transaction context wholesale.
  obs_misses_->Add();
  tp.incoming_ = synopsis;
  tp.local_node_ = context::kEmptyContext;
  UpdateCct(tp);
  return false;
}

uint32_t StageProfiler::CurrentCtxtId(ThreadProfile& tp) { return InternCtxt(FullSynopsis(tp)); }

void StageProfiler::AdoptCtxt(ThreadProfile& tp, uint32_t ctxt_id) {
  if (!TracksTransactions(options_.mode)) {
    return;
  }
  obs_adoptions_->Add();
  tp.incoming_ = ctxt_table_.at(ctxt_id);
  tp.local_node_ = context::kEmptyContext;
  UpdateCct(tp);
}

uint64_t StageProfiler::CrosstalkTag(ThreadProfile& tp) {
  UpdateCct(tp);
  return InternCtxt(tp.current_label_);
}

void StageProfiler::AttachLive(obs::live::Whodunitd* live) {
  live_ = live;
  live_name_sym_ = live_ != nullptr ? live_->symbols().Intern(options_.name) : 0;
  if (live_ != nullptr) {
    // UpdateCct keeps live_ctxt_node_ current only while attached. A
    // thread with no label yet has an empty context.
    for (const auto& tp : threads_) {
      tp->live_ctxt_node_ =
          tp->label_valid_ ? LiveCtxtNode(tp->current_label_) : context::kEmptyContext;
    }
  }
}

obs::live::TxnHandle StageProfiler::LiveBegin(ThreadProfile& tp, uint32_t type_sym) {
  if (live_ == nullptr || !TracksTransactions(options_.mode)) {
    return 0;
  }
  // Unsampled transactions never reach the daemon; every downstream
  // live hook already no-ops on handle 0.
  if (!tp.sampled_) {
    tp.live_txn_ = 0;
    return 0;
  }
  tp.live_txn_ = live_->BeginTxn(live_name_sym_, obs::live::SymId{type_sym}, live_->now());
  tp.live_span_service_ = 0;
  tp.live_span_lock_ = 0;
  return tp.live_txn_;
}

obs::live::TxnHandle StageProfiler::LiveBegin(ThreadProfile& tp, std::string_view type) {
  if (live_ == nullptr) {
    return 0;
  }
  return LiveBegin(tp, live_->symbols().Intern(type));
}

void StageProfiler::LiveJoin(ThreadProfile& tp, obs::live::TxnHandle txn, sim::SimTime queue_ns) {
  if (live_ == nullptr) {
    return;
  }
  tp.live_txn_ = txn;
  tp.live_span_service_ = 0;
  tp.live_span_lock_ = 0;
  if (txn == 0) {
    return;
  }
  // tp.live_ctxt_node_ is already current: UpdateCct recomputes it on
  // every context change.
  const uint32_t link = deployment_.synopsis_table().LastPart(tp.incoming_);
  live_->JoinSpan(txn, live_name_sym_, link, live_->now(), queue_ns, tp.live_ctxt_node_);
}

void StageProfiler::LiveLeave(ThreadProfile& tp) {
  if (live_ == nullptr) {
    return;
  }
  const obs::live::SpanWaits waits = TakeSpanWaits(tp);
  if (tp.live_txn_ != 0) {
    live_->EndSpan(tp.live_txn_, live_name_sym_, live_->now(), waits);
  }
  tp.live_txn_ = 0;
}

void StageProfiler::LiveComplete(ThreadProfile& tp, bool error) {
  if (live_ == nullptr) {
    return;
  }
  const obs::live::SpanWaits waits = TakeSpanWaits(tp);
  if (tp.live_txn_ != 0) {
    live_->CompleteTxn(tp.live_txn_, live_->now(),
                       {tp.live_ctxt_node_, error, live_name_sym_, waits});
  }
  tp.live_txn_ = 0;
}

void StageProfiler::LiveLockWait(ThreadProfile& tp, sim::SimTime wait_ns) {
  if (live_ != nullptr && tp.live_txn_ != 0 && wait_ns > 0) {
    tp.live_span_lock_ += wait_ns;
  }
}

void StageProfiler::LiveType(ThreadProfile& tp, uint32_t type_sym) {
  if (live_ != nullptr && tp.live_txn_ != 0) {
    live_->SetTxnType(tp.live_txn_, obs::live::SymId{type_sym});
  }
}

void StageProfiler::LiveType(ThreadProfile& tp, std::string_view type) {
  if (live_ != nullptr && tp.live_txn_ != 0) {
    live_->SetTxnType(tp.live_txn_, type);
  }
}

void StageProfiler::FlushLive() {
  for (const auto& tp : threads_) {
    FlushLiveCost(*tp);
  }
}

context::NodeId StageProfiler::LiveCtxtNode(context::SynopsisId label) {
  context::NodeId& memo = SlotFor(live_nodes_, label, kNoEntry);
  if (memo == kNoEntry) {
    memo = ConcatParts(label);
  }
  return memo;
}

context::NodeId StageProfiler::ConcatParts(context::SynopsisId label) const {
  if (label == context::kEmptySynopsis) {
    return context::kEmptyContext;
  }
  const context::SynopsisTable& table = deployment_.synopsis_table();
  return context::GlobalContextTree().Concat(
      ConcatParts(table.Parent(label)), deployment_.synopses().LookupNode(table.LastPart(label)));
}

void StageProfiler::FlushLiveCost(ThreadProfile& tp) {
  if (live_ == nullptr || tp.live_cost_acc_ == 0) {
    return;
  }
  live_->AddCost(tp.live_ctxt_node_, static_cast<uint64_t>(tp.live_cost_acc_));
  tp.live_cost_acc_ = 0;
}

obs::live::SpanWaits StageProfiler::TakeSpanWaits(ThreadProfile& tp) {
  const obs::live::SpanWaits waits{static_cast<int64_t>(tp.live_span_service_),
                                   static_cast<int64_t>(tp.live_span_lock_)};
  tp.live_span_service_ = 0;
  tp.live_span_lock_ = 0;
  return waits;
}

void StageProfiler::AccountMessage(size_t payload_bytes, size_t context_bytes) {
  payload_bytes_ += payload_bytes;
  context_bytes_ += context_bytes;
}

const callpath::CallingContextTree* StageProfiler::FindCct(context::SynopsisId label) const {
  return label < ccts_.size() ? ccts_[label].get() : nullptr;
}

const callpath::CallingContextTree* StageProfiler::FindCct(
    const context::Synopsis& label) const {
  context::SynopsisId id = context::kEmptySynopsis;
  return deployment_.synopsis_table().Find(label, &id) ? FindCct(id) : nullptr;
}

std::vector<std::pair<context::Synopsis, const callpath::CallingContextTree*>>
StageProfiler::LabeledCcts() const {
  std::vector<std::pair<context::Synopsis, const callpath::CallingContextTree*>> out;
  for (context::SynopsisId label = 0; label < ccts_.size(); ++label) {
    const callpath::CallingContextTree* cct = ccts_[label].get();
    // Skip trees that were created (a thread merely passed through the
    // context) but never accumulated any profile data.
    if (cct == nullptr ||
        (cct->TotalCpuTime() == 0 && cct->TotalSamples() == 0 && cct->size() == 1)) {
      continue;
    }
    out.emplace_back(deployment_.synopsis_table().Materialize(label), cct);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first.parts < b.first.parts;
  });
  return out;
}

uint64_t StageProfiler::total_samples() const {
  uint64_t total = 0;
  for (const auto& cct : ccts_) {
    total += cct != nullptr ? cct->TotalSamples() : 0;
  }
  return total;
}

sim::SimTime StageProfiler::total_cpu_time() const {
  sim::SimTime total = 0;
  for (const auto& cct : ccts_) {
    total += cct != nullptr ? cct->TotalCpuTime() : 0;
  }
  return total;
}

std::string StageProfiler::RenderTransactionalProfile(double min_fraction) const {
  std::ostringstream out;
  const double stage_total = static_cast<double>(total_cpu_time());
  out << "=== transactional profile of stage '" << options_.name << "' ===\n";
  for (const auto& [label, cct] : LabeledCcts()) {
    const double share =
        stage_total > 0 ? 100.0 * static_cast<double>(cct->TotalCpuTime()) / stage_total : 0.0;
    out << "--- context " << (label.empty() ? "(origin)" : deployment_.DescribeSynopsis(label))
        << "  [" << share << "% of stage CPU, " << cct->TotalSamples() << " samples]\n";
    out << cct->Render(deployment_.functions(), min_fraction);
  }
  return out.str();
}

std::string StageProfiler::RenderFlatProfile(size_t max_rows) const {
  struct Row {
    sim::SimTime cpu = 0;
    uint64_t samples = 0;
    uint64_t calls = 0;
  };
  std::map<callpath::FunctionId, Row> rows;
  for (const auto& cct : ccts_) {
    if (cct == nullptr) {
      continue;
    }
    for (callpath::NodeIndex i = 0; i < cct->size(); ++i) {
      const auto& node = cct->node(i);
      if (i == cct->root()) {
        continue;
      }
      Row& row = rows[node.function];
      row.cpu += node.cpu_time;
      row.samples += node.samples;
      row.calls += node.calls;
    }
  }
  std::vector<std::pair<callpath::FunctionId, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.cpu > b.second.cpu; });

  const double total = static_cast<double>(total_cpu_time());
  std::ostringstream out;
  out << "=== flat profile of stage '" << options_.name << "' (all contexts merged) ===\n";
  out << "  %time        cpu   samples     calls  function\n";
  size_t emitted = 0;
  for (const auto& [fn, row] : sorted) {
    if (emitted++ >= max_rows) {
      break;
    }
    const double pct = total > 0 ? 100.0 * static_cast<double>(row.cpu) / total : 0.0;
    out << "  " << pct << "%  " << sim::ToMillis(row.cpu) << "ms  " << row.samples << "  "
        << row.calls << "  " << deployment_.functions().NameOf(fn) << "\n";
  }
  return out.str();
}

callpath::CallingContextTree& StageProfiler::CctFor(context::SynopsisId label) {
  if (label >= ccts_.size()) {
    ccts_.resize(size_t{label} + 1);
  }
  std::unique_ptr<callpath::CallingContextTree>& cct = ccts_[label];
  if (cct == nullptr) {
    cct = std::make_unique<callpath::CallingContextTree>();
  }
  return *cct;
}

context::SynopsisId StageProfiler::ComputeLabel(const ThreadProfile& tp) {
  if (tp.local_node_ == context::kEmptyContext) {
    return tp.incoming_;
  }
  return deployment_.synopsis_table().Extend(tp.incoming_,
                                             deployment_.synopses().Intern(tp.local_node_));
}

void StageProfiler::UpdateCct(ThreadProfile& tp) {
  // The label is a pure function of (incoming_, local_node_).
  if (tp.label_valid_ && tp.incoming_ == tp.label_incoming_ &&
      tp.local_node_ == tp.label_local_) {
    return;
  }
  tp.label_incoming_ = tp.incoming_;
  tp.label_local_ = tp.local_node_;
  const context::SynopsisId label = ComputeLabel(tp);
  if (tp.label_valid_ && label == tp.current_label_) {
    return;
  }
  obs_switches_->Add();
  if (live_ != nullptr) {
    // Costs batched so far belong to the outgoing context.
    FlushLiveCost(tp);
  }
  tp.current_label_ = label;
  tp.label_valid_ = true;
  tp.stack_.AttachCct(&CctFor(label));
  if (live_ != nullptr) {
    tp.live_ctxt_node_ = LiveCtxtNode(label);
  }
}

callpath::PathId StageProfiler::CurrentPathId(ThreadProfile& tp) {
  callpath::CallingContextTree* cct = tp.stack_.cct();
  if (cct == nullptr) {
    return deployment_.paths().Intern(tp.stack_.path());
  }
  // The attached CCT's current node spells exactly the stack's path.
  callpath::PathId& memo = cct->path_id(tp.stack_.current_node());
  if (memo == callpath::kNoPathId) {
    memo = deployment_.paths().Intern(tp.stack_.path());
  }
  return memo;
}

context::SynopsisId StageProfiler::FullSynopsis(ThreadProfile& tp) {
  // Transaction context at the send point: the locally accumulated
  // elements plus the call path leading here (§5). Three O(1) probes:
  // one hash-cons append, one synopsis-dictionary lookup, one chain
  // extension.
  const context::NodeId full = context::GlobalContextTree().Append(
      tp.local_node_, context::Element{context::ElementKind::kCallPath, CurrentPathId(tp)});
  return deployment_.synopsis_table().Extend(tp.incoming_, deployment_.synopses().Intern(full));
}

uint32_t StageProfiler::InternCtxt(context::SynopsisId synopsis) {
  uint32_t& id = SlotFor(ctxt_ids_, synopsis, kNoEntry);
  if (id == kNoEntry) {
    id = static_cast<uint32_t>(ctxt_table_.size());
    ctxt_table_.push_back(synopsis);
  }
  return id;
}

}  // namespace whodunit::profiler
