// Miniproxy: the Squid stand-in (paper §8.2, §9.3, Figure 9).
//
// An event-driven web proxy cache built on the instrumented event
// library (src/events). Its handlers mirror Squid's: httpAccept
// accepts client connections, clientReadRequest parses a request and
// consults the cache, commConnectHandle opens a connection to the
// origin server on a miss, httpReadReply receives origin content, and
// commHandleWrite sends the response to the client.
//
// The experiment the paper highlights: commHandleWrite executes under
// TWO transaction contexts — one reached via the cache-hit handler
// sequence and one via the cache-miss sequence — a distinction no
// conventional profiler makes.
#ifndef SRC_APPS_MINIPROXY_MINIPROXY_H_
#define SRC_APPS_MINIPROXY_MINIPROXY_H_

#include <cstdint>
#include <string>

#include "src/apps/run_options.h"
#include "src/sim/time.h"

namespace whodunit::apps {

// Sampling is per connection: the decision is drawn when the accept
// event is injected and rides on every event the connection spawns;
// unsampled connections are dispatched with no context-tree work.
struct MiniproxyOptions : RunOptions {
  int clients = 48;
  sim::SimTime duration = sim::Seconds(20);
};

struct MiniproxyResult {
  double throughput_mbps = 0;
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double hit_ratio = 0;

  // Figure 9's claim: the number of distinct transaction contexts the
  // write handler executed under (2: hit path and miss path).
  size_t write_handler_context_count = 0;
  double hit_path_share = 0;   // % of proxy CPU in the hit-path context
  double miss_path_share = 0;  // % in the miss-path context (incl. read)
  // Raw accumulators behind the shares; shard merging sums these and
  // recomputes the percentages so merged shares are exact.
  uint64_t hit_path_cpu_ns = 0;
  uint64_t miss_path_cpu_ns = 0;
  uint64_t total_cpu_ns = 0;

  std::string profile_text;
};

// Runs the proxy. With options.shards > 1 the run fans out through
// RunSharded (src/apps/harness.h): numeric results merge exactly
// (raw-sum fields; write_handler_context_count takes the per-shard
// max, since every shard sees the same hit/miss context pair) and
// profile_text is the canonical cross-shard merge.
MiniproxyResult RunMiniproxy(const MiniproxyOptions& options);

}  // namespace whodunit::apps

#endif  // SRC_APPS_MINIPROXY_MINIPROXY_H_
