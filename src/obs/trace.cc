#include "src/obs/trace.h"

namespace whodunit::obs {

TraceLog::TraceLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_ < 1024 ? capacity_ : 1024);
}

void TraceLog::Record(std::string_view name, std::string_view detail, uint64_t ctxt_hash,
                      int64_t start_ns, int64_t duration_ns) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  SpanRecord* slot = nullptr;
  if (ring_.size() < capacity_) {
    slot = &ring_.emplace_back();
  } else {
    slot = &ring_[next_];
    next_ = (next_ + 1) % capacity_;
  }
  slot->name.assign(name);
  slot->detail.assign(detail);
  slot->ctxt_hash = ctxt_hash;
  slot->start_ns = start_ns;
  slot->duration_ns = duration_ns;
}

std::vector<SpanRecord> TraceLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Oldest first: when the ring has wrapped, next_ points at the
  // oldest surviving span.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

uint64_t TraceLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

void TraceLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

namespace {

thread_local TraceLog* current_tracer = nullptr;

}  // namespace

TraceLog& GlobalTracer() {
  static TraceLog* log = new TraceLog();
  return *log;
}

TraceLog& Tracer() {
  TraceLog* log = current_tracer;
  return log != nullptr ? *log : GlobalTracer();
}

ScopedTraceLog::ScopedTraceLog(TraceLog& log) : prev_(current_tracer) { current_tracer = &log; }

ScopedTraceLog::~ScopedTraceLog() { current_tracer = prev_; }

}  // namespace whodunit::obs
