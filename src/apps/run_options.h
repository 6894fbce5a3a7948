// The run knobs every app shares. Each app's options struct inherits
// RunOptions, so the knobs are spelled the same everywhere (o.seed,
// o.arrivals, o.shards, ...); app-specific knobs stay in the app's
// struct.
#ifndef SRC_APPS_RUN_OPTIONS_H_
#define SRC_APPS_RUN_OPTIONS_H_

#include <cstdint>

#include "src/callpath/profiler_mode.h"
#include "src/workload/arrivals.h"

namespace whodunit::apps {

struct RunOptions {
  callpath::ProfilerMode mode = callpath::ProfilerMode::kWhodunit;
  uint64_t seed = 1;

  // ---- Open-loop arrivals (src/workload/arrivals.h) -------------------
  // kind == kClosed reproduces the seed behavior exactly: one client
  // coroutine per client. kPoisson / kBursty switch to open-loop
  // generators (the --arrivals / --offered-load knobs): ~1 generator
  // coroutine per 10k logical clients injects requests on an arrival
  // clock, and per-client memory goes flat — see docs/PRODUCTION.md.
  // offered_load_tps is the aggregate over all shards; 0 derives it
  // from the client count (one request per client per second for apps
  // without think time).
  workload::ArrivalConfig arrivals;

  // ---- Production sampling (docs/PRODUCTION.md) -----------------------
  // Fraction of top-level transactions that are profiled (the
  // --sample-rate knob). 1.0 profiles everything and is byte-identical
  // to the pre-sampling profiler; unsampled transactions pay only the
  // per-transaction coin flip.
  double sample_rate = 1.0;
  // Decision-stream seed; 0 derives it from `seed` (so sharded runs
  // sample independent per-shard subsets automatically).
  uint64_t sample_seed = 0;

  // ---- Shard-parallel execution (RunSharded, src/apps/harness.h) -----
  // shards > 1 partitions the client population into `shards`
  // independent deployments merged in shard order. For a fixed
  // `shards`, the merged result is byte-identical for any `threads`,
  // which only sets the worker-pool size (1 = run shards serially on
  // the calling thread).
  int shards = 1;
  int threads = 1;
};

}  // namespace whodunit::apps

#endif  // SRC_APPS_RUN_OPTIONS_H_
