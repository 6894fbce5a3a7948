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
  tp.incoming_ = {};
  tp.local_node_ = context::kEmptyContext;
  tp.pending_sends_.clear();
  tp.sampled_ = deployment_.sampling().Decide();
  UpdateCct(tp);
}

context::Synopsis StageProfiler::PrepareSend(ThreadProfile& tp, bool expect_response) {
  if (!TracksTransactions(options_.mode)) {
    return {};
  }
  // Unsampled transaction: piggy-back nothing. A sampled send always
  // carries at least one part, so the receiver reads an empty wire
  // synopsis unambiguously as "unsampled" (OnReceive below). No
  // dictionary work, no pending-send state, no per-message cost.
  if (!tp.sampled_) {
    obs_suppressed_->Add();
    return {};
  }
  obs_sends_->Add();
  // Transaction context at the send point: the locally accumulated
  // elements plus the call path leading to the send (§5). Two O(1)
  // probes: one hash-cons append, one synopsis-dictionary lookup.
  const context::NodeId send_node = context::GlobalContextTree().Append(
      tp.local_node_, context::Element{context::ElementKind::kCallPath,
                                       deployment_.paths().Intern(tp.stack_.path())});
  const uint32_t part = deployment_.synopses().Intern(send_node);
  context::Synopsis wire = tp.incoming_.Extend(context::Synopsis{{part}});
  if (expect_response) {
    tp.pending_sends_.emplace_back(
        wire, ThreadProfile::SavedState{tp.incoming_, tp.local_node_});
  }
  ++tp.uncharged_messages_;
  if (live_ != nullptr && tp.live_txn_ != 0) {
    live_->NoteSend(tp.live_txn_, live_name_sym_, part);
  }
  return wire;
}

bool StageProfiler::OnReceive(ThreadProfile& tp, const context::Synopsis& synopsis) {
  if (!TracksTransactions(options_.mode)) {
    return false;
  }
  // An empty wire synopsis under active sampling means the sender's
  // transaction was unsampled (PrepareSend above): carry the unsampled
  // state across the hop and skip the context machinery. Gated on
  // always_on so rate-1.0 deployments keep the historical
  // adopt-empty-context behaviour byte for byte.
  if (synopsis.empty() && !deployment_.sampling().always_on()) {
    tp.sampled_ = false;
    tp.pending_sends_.clear();
    return false;
  }
  tp.sampled_ = true;
  ++tp.uncharged_messages_;
  // Response recognition (§5): a message whose synopsis extends one we
  // sent is the reply to that request; restore the context we had when
  // we issued it.
  for (auto it = tp.pending_sends_.begin(); it != tp.pending_sends_.end(); ++it) {
    if (synopsis.parts.size() > it->first.parts.size() && synopsis.HasPrefix(it->first)) {
      tp.incoming_ = it->second.incoming;
      tp.local_node_ = it->second.local_node;
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

const context::Synopsis& StageProfiler::SynopsisOfCtxtId(uint32_t ctxt_id) const {
  return ctxt_table_.at(ctxt_id);
}

uint64_t StageProfiler::CrosstalkTag(ThreadProfile& tp) {
  return InternCtxt(ComputeLabel(tp));
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

uint64_t StageProfiler::LiveBegin(ThreadProfile& tp, uint32_t type_sym) {
  if (live_ == nullptr || !TracksTransactions(options_.mode)) {
    return 0;
  }
  // Unsampled transactions never reach the daemon; every downstream
  // live hook already no-ops on txn id 0.
  if (!tp.sampled_) {
    tp.live_txn_ = 0;
    return 0;
  }
  tp.live_txn_ = live_->BeginTxn(live_name_sym_, obs::live::SymId{type_sym}, live_->now());
  tp.live_span_service_ = 0;
  tp.live_span_lock_ = 0;
  return tp.live_txn_;
}

uint64_t StageProfiler::LiveBegin(ThreadProfile& tp, std::string_view type) {
  if (live_ == nullptr) {
    return 0;
  }
  return LiveBegin(tp, live_->symbols().Intern(type));
}

void StageProfiler::LiveJoin(ThreadProfile& tp, uint64_t txn, sim::SimTime queue_ns) {
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
  const uint32_t link = tp.incoming_.parts.empty() ? 0 : tp.incoming_.parts.back();
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

context::NodeId StageProfiler::LiveCtxtNode(const context::Synopsis& label) {
  auto [it, inserted] = live_nodes_.try_emplace(label, context::kEmptyContext);
  if (inserted) {
    context::ContextTree& tree = context::GlobalContextTree();
    for (uint32_t part : label.parts) {
      it->second = tree.Concat(it->second, deployment_.synopses().LookupNode(part));
    }
  }
  return it->second;
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

const callpath::CallingContextTree* StageProfiler::FindCct(
    const context::Synopsis& label) const {
  auto it = ccts_.find(label);
  return it == ccts_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<context::Synopsis, const callpath::CallingContextTree*>>
StageProfiler::LabeledCcts() const {
  std::vector<std::pair<context::Synopsis, const callpath::CallingContextTree*>> out;
  out.reserve(ccts_.size());
  for (const auto& [label, cct] : ccts_) {
    // Skip trees that were created (a thread merely passed through the
    // context) but never accumulated any profile data.
    if (cct->TotalCpuTime() == 0 && cct->TotalSamples() == 0 && cct->size() == 1) {
      continue;
    }
    out.emplace_back(label, cct.get());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first.parts < b.first.parts;
  });
  return out;
}

uint64_t StageProfiler::total_samples() const {
  uint64_t total = 0;
  for (const auto& [label, cct] : ccts_) {
    total += cct->TotalSamples();
  }
  return total;
}

sim::SimTime StageProfiler::total_cpu_time() const {
  sim::SimTime total = 0;
  for (const auto& [label, cct] : ccts_) {
    total += cct->TotalCpuTime();
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
  for (const auto& [label, cct] : ccts_) {
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

callpath::CallingContextTree& StageProfiler::CctFor(const context::Synopsis& label) {
  auto it = ccts_.find(label);
  if (it == ccts_.end()) {
    it = ccts_.emplace(label, std::make_unique<callpath::CallingContextTree>()).first;
  }
  return *it->second;
}

context::Synopsis StageProfiler::ComputeLabel(const ThreadProfile& tp) {
  if (tp.local_node_ == context::kEmptyContext) {
    return tp.incoming_;
  }
  context::Synopsis label = tp.incoming_;
  label.parts.push_back(deployment_.synopses().Intern(tp.local_node_));
  return label;
}

void StageProfiler::UpdateCct(ThreadProfile& tp) {
  context::Synopsis label = ComputeLabel(tp);
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

context::Synopsis StageProfiler::FullSynopsis(ThreadProfile& tp) {
  const context::NodeId full = context::GlobalContextTree().Append(
      tp.local_node_, context::Element{context::ElementKind::kCallPath,
                                       deployment_.paths().Intern(tp.stack_.path())});
  return tp.incoming_.Extend(context::Synopsis{{deployment_.synopses().Intern(full)}});
}

uint32_t StageProfiler::InternCtxt(const context::Synopsis& synopsis) {
  auto it = ctxt_ids_.find(synopsis);
  if (it != ctxt_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<uint32_t>(ctxt_table_.size());
  ctxt_table_.push_back(synopsis);
  ctxt_ids_.emplace(synopsis, id);
  return id;
}

}  // namespace whodunit::profiler
