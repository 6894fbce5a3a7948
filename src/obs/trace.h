// Self-observability: lightweight trace spans keyed by transaction
// context.
//
// A span records one unit of dispatched work — an event-handler run,
// a SEDA element — with its virtual-time start and duration and the
// hash of the transaction context it ran under. Spans let a report
// line up the profiler's internal behavior (queueing, dispatch,
// context switches) with the transactions the paper profiles, without
// paying for full context strings on the hot path: the context is
// recorded as its 64-bit hash, joinable against the context
// dictionary post mortem.
//
// The log is a bounded ring: once `capacity` spans are buffered the
// oldest are overwritten and `dropped()` counts the loss — tracing
// must never become the overhead it is meant to observe.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace whodunit::obs {

struct SpanRecord {
  // Instrumentation point, e.g. "events.handler" or "seda.stage".
  std::string name;
  // What ran: handler name, stage name.
  std::string detail;
  // Hash of the transaction context the work ran under (0 = none).
  uint64_t ctxt_hash = 0;
  // Virtual time (ns since simulation start).
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
};

class TraceLog {
 public:
  explicit TraceLog(size_t capacity = kDefaultCapacity);
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  static constexpr size_t kDefaultCapacity = 4096;

  // Appends one span. Once the ring is full the oldest slot is
  // overwritten in place, reusing its strings' storage, so steady-state
  // tracing makes no allocation per span.
  void Record(std::string_view name, std::string_view detail, uint64_t ctxt_hash,
              int64_t start_ns, int64_t duration_ns);

  // The buffered spans, oldest first.
  std::vector<SpanRecord> Snapshot() const;
  uint64_t recorded() const;
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }
  void Clear();

  // Tracing defaults to on; turn off to make Record a no-op (the
  // counters still run — spans are the expensive part).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  size_t next_ = 0;          // overwrite position once full
  uint64_t recorded_ = 0;
  bool enabled_ = true;
};

// The trace log the built-in instrumentation writes to: normally the
// process-wide one, but a shard isolate (sim::ShardEnv::Scope) can
// install a private log for the calling thread.
TraceLog& Tracer();
// The process-wide default log, regardless of any installed scope.
TraceLog& GlobalTracer();

// Installs `log` as the calling thread's Tracer() for the lifetime of
// the scope; restores the previous target on destruction.
class ScopedTraceLog {
 public:
  explicit ScopedTraceLog(TraceLog& log);
  ~ScopedTraceLog();
  ScopedTraceLog(const ScopedTraceLog&) = delete;
  ScopedTraceLog& operator=(const ScopedTraceLog&) = delete;

 private:
  TraceLog* prev_;
};

}  // namespace whodunit::obs

#endif  // SRC_OBS_TRACE_H_
