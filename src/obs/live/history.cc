#include "src/obs/live/history.h"

#include <sstream>
#include <utility>

#include "src/obs/export.h"

namespace whodunit::obs::live {

TxnHistory::TxnHistory(HistoryOptions options)
    : options_(options),
      obs_ingested_(&Registry().GetCounter("history.txns_ingested")),
      obs_flushes_(&Registry().GetCounter("history.flushes")),
      obs_evicted_txns_(&Registry().GetCounter("history.evicted_txns")),
      obs_evicted_bytes_(&Registry().GetCounter("history.evicted_bytes")),
      obs_retained_txns_(&Registry().GetGauge("history.retained_txns")),
      obs_retained_bytes_(&Registry().GetGauge("history.retained_bytes")) {}

size_t TxnHistory::ApproxBytes(const TxnEvent& event) {
  // Names are interned, so the record's footprint is the struct plus
  // its pooled span/attr blocks — capacity, not size, since the pooled
  // block is what the record actually holds onto.
  size_t bytes = sizeof(TxnEvent);
  bytes += event.spans.capacity() * sizeof(StageSpan);
  bytes += event.attr.capacity() * sizeof(AttrSlice);
  return bytes;
}

void TxnHistory::Ingest(TxnEvent&& event, int64_t now) {
  if (!enabled()) {
    ring_.push_back(std::move(event));
    ++dead_;
    Trim();
    return;
  }
  if (!saw_ingest_) {
    // The flush clock starts at the first record, not at virtual time
    // zero, so a late-starting daemon does not flush immediately.
    saw_ingest_ = true;
    last_flush_ns_ = now;
  }
  const size_t bytes = ApproxBytes(event);
  ring_.push_back(std::move(event));
  pending_bytes_ += bytes;
  obs_ingested_->Add();
  if (now - last_flush_ns_ >= options_.flush_interval_ns) {
    Flush(now);
  }
}

void TxnHistory::Flush(int64_t now) {
  if (!enabled() || (pending_txns() == 0 && retained_bytes_ <= options_.max_bytes)) {
    last_flush_ns_ = now;
    return;
  }
  ++flushes_;
  obs_flushes_->Add();
  visible_ = ring_.size() - dead_;
  retained_bytes_ += pending_bytes_;
  pending_bytes_ = 0;
  // Oldest-first eviction down to the soft limit. A single record
  // larger than the whole budget still stays until a newer one
  // arrives — the store never evicts its only record to emptiness
  // unless the budget forces it.
  const uint64_t evicted_txns_before = evicted_txns_;
  const uint64_t evicted_bytes_before = evicted_bytes_;
  while (retained_bytes_ > options_.max_bytes && visible_ > 0) {
    const size_t bytes = ApproxBytes(ring_[dead_]);
    retained_bytes_ -= bytes;
    ++evicted_txns_;
    evicted_bytes_ += bytes;
    ++dead_;
    --visible_;
  }
  Trim();
  obs_evicted_txns_->Add(evicted_txns_ - evicted_txns_before);
  obs_evicted_bytes_->Add(evicted_bytes_ - evicted_bytes_before);
  obs_retained_txns_->Set(static_cast<int64_t>(visible_));
  obs_retained_bytes_->Set(static_cast<int64_t>(retained_bytes_));
  last_flush_ns_ = now;
}

void TxnHistory::Trim() {
  while (dead_ > 0 && ring_.size() > options_.recent) {
    ring_.pop_front();
    --dead_;
  }
}

std::vector<const TxnEvent*> TxnHistory::Scan() const {
  std::vector<const TxnEvent*> out;
  out.reserve(visible_);
  for (size_t i = 0; i < visible_; ++i) {
    out.push_back(&ring_[dead_ + i]);
  }
  return out;
}

std::string TxnHistory::ExportJson() const {
  std::ostringstream out;
  out << "{\"schema\":\"whodunit-history-v1\",\"retained_txns\":" << visible_
      << ",\"retained_bytes\":" << retained_bytes_ << ",\"evicted_txns\":" << evicted_txns_
      << ",\"evicted_bytes\":" << evicted_bytes_ << ",\"flushes\":" << flushes_
      << ",\"txns\":[";
  bool first = true;
  for (size_t e = 0; e < visible_; ++e) {
    const TxnEvent& ev = ring_[dead_ + e];
    out << (first ? "" : ",") << "\n{\"txn_id\":" << ev.txn_id
        << ",\"type\":" << JsonString(syms_->Name(ev.type))
        << ",\"origin\":" << JsonString(syms_->Name(ev.origin_stage))
        << ",\"start_ns\":" << ev.start_ns << ",\"end_ns\":" << ev.end_ns
        << ",\"error\":" << (ev.error ? "true" : "false") << ",\"spans\":[";
    for (size_t i = 0; i < ev.spans.size(); ++i) {
      const StageSpan& span = ev.spans[i];
      out << (i ? "," : "") << "{\"stage\":" << JsonString(syms_->Name(span.stage))
          << ",\"start_ns\":" << span.start_ns << ",\"duration_ns\":" << span.duration_ns
          << ",\"parent\":" << span.parent << ",\"link\":" << span.link << "}";
    }
    out << "]}";
    first = false;
  }
  out << "]}\n";
  return out.str();
}

}  // namespace whodunit::obs::live
