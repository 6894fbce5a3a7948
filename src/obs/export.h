// Self-observability: JSON export of metrics and trace spans.
//
// The export is what crosses the process boundary: benches dump
// `BENCH_<name>.metrics.json` at exit so result trajectories carry
// the profiler's internal counters next to the wall-clock numbers,
// and `examples/offline_report` re-reads a dump and renders it. The
// schema (docs/METRICS.md) is deliberately small — flat maps of
// counters and gauges, explicit-bucket histograms, a span array — and
// ParseJson understands exactly that subset, so the round trip needs
// no external JSON dependency.
#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace whodunit::obs {

// Serializes a snapshot (and optional spans) as schema-version-1 JSON.
std::string ToJson(const MetricsSnapshot& snapshot,
                   const std::vector<SpanRecord>& spans = {});

// Parses JSON produced by ToJson. Returns false on malformed input or
// wrong schema version. `spans` may be null to skip span decoding.
bool ParseJson(std::string_view json, MetricsSnapshot* out,
               std::vector<SpanRecord>* spans = nullptr);

// `s` as a quoted JSON string: `"` and `\` escaped, \n and \t spelled
// out, every other byte below 0x20 as \u00XX. The one escaper behind
// every JSON export: the metrics dump, the live query, the span trace
// and the history export.
std::string JsonString(std::string_view s);

// Human-readable rendering of a snapshot (one instrument per line,
// histograms with percentile estimates) for reports and examples.
std::string RenderText(const MetricsSnapshot& snapshot,
                       const std::vector<SpanRecord>* spans = nullptr);

// Snapshots the global Registry() and Tracer() and writes the JSON
// dump to `path`. Returns false if the file could not be written.
bool DumpGlobalMetrics(const std::string& path);

}  // namespace whodunit::obs

#endif  // SRC_OBS_EXPORT_H_
