#include "src/obs/live/span_export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "src/obs/export.h"

namespace whodunit::obs::live {
namespace {

// Virtual-time ns -> trace-format microseconds, fixed three decimals
// so the output is byte-stable for golden tests.
std::string Micros(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

// Chrome trace reserved color name for a span, keyed by its dominant
// measured wait-state component (docs/OBSERVABILITY.md): lock wait
// paints red, queue wait light green, service dark green. A span with
// no measurements (attribution off, or a stage with no feeds) stays
// grey.
const char* SpanColor(const StageSpan& span) {
  if (span.lock_ns <= 0 && span.queue_ns <= 0 && span.service_ns <= 0) {
    return "grey";
  }
  if (span.lock_ns >= span.queue_ns && span.lock_ns >= span.service_ns) {
    return "terrible";  // lock wait: red
  }
  if (span.queue_ns >= span.service_ns) {
    return "thread_state_runnable";  // queue wait: light green
  }
  return "thread_state_running";  // service: dark green
}

}  // namespace

std::string ExportChromeTrace(const std::vector<TxnEvent>& events, const SymbolTable& syms) {
  // One track per stage, numbered by first appearance across events.
  std::map<SymId, int> tids;
  auto tid_of = [&](SymId stage) {
    auto it = tids.find(stage);
    if (it == tids.end()) {
      it = tids.emplace(stage, static_cast<int>(tids.size())).first;
    }
    return it->second;
  };
  for (const TxnEvent& ev : events) {
    for (const StageSpan& span : ev.spans) {
      tid_of(span.stage);
    }
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](auto&& body) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n{";
    body();
    out << "}";
  };

  // Metadata events go out in stage-NAME order (tids is id-ordered, so
  // re-sort by resolved name) to match the pre-interning output.
  std::vector<std::pair<const std::string*, int>> named;
  named.reserve(tids.size());
  for (const auto& [stage, tid] : tids) {
    named.emplace_back(&syms.Name(stage), tid);
  }
  std::sort(named.begin(), named.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& [name, tid] : named) {
    emit([&] {
      out << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
          << ",\"args\":{\"name\":" << JsonString(*name) << "}";
    });
  }

  uint64_t flow_id = 0;
  for (const TxnEvent& ev : events) {
    for (size_t i = 0; i < ev.spans.size(); ++i) {
      const StageSpan& span = ev.spans[i];
      const int tid = tid_of(span.stage);
      emit([&] {
        const std::string& type = syms.Name(ev.type);
        out << "\"name\":" << JsonString(type.empty() ? "txn" : type)
            << ",\"cat\":\"txn\",\"ph\":\"X\",\"cname\":\"" << SpanColor(span)
            << "\",\"pid\":1,\"tid\":" << tid
            << ",\"ts\":" << Micros(span.start_ns) << ",\"dur\":" << Micros(span.duration_ns)
            << ",\"args\":{\"txn\":" << ev.txn_id
            << ",\"stage\":" << JsonString(syms.Name(span.stage))
            << ",\"ctxt\":" << ev.root_ctxt << "}";
      });
      // Request edge: an arrow from the sending span's track to this
      // span's start, labeled with the synopsis part that linked them.
      if (span.parent >= 0 && static_cast<size_t>(span.parent) < ev.spans.size()) {
        const StageSpan& parent = ev.spans[static_cast<size_t>(span.parent)];
        const uint64_t id = ++flow_id;
        emit([&] {
          out << "\"name\":\"synopsis_" << span.link << "\",\"cat\":\"flow\",\"ph\":\"s\","
              << "\"pid\":1,\"tid\":" << tid_of(parent.stage) << ",\"ts\":"
              << Micros(span.start_ns) << ",\"id\":" << id;
        });
        emit([&] {
          out << "\"name\":\"synopsis_" << span.link << "\",\"cat\":\"flow\",\"ph\":\"f\","
              << "\"bp\":\"e\",\"pid\":1,\"tid\":" << tid << ",\"ts\":"
              << Micros(span.start_ns) << ",\"id\":" << id;
        });
      }
    }
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace whodunit::obs::live
