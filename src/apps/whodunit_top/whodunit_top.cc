// whodunit_top: a `top`-style console for the live observability
// daemon (docs/OBSERVABILITY.md).
//
// Runs the TPC-W bookstore with a whodunitd daemon attached and
// renders the daemon's top-transactions table every poll interval of
// *virtual* time — latency quantiles and error counts per transaction
// type, per-stage throughput, the live crosstalk matrix, and the most
// expensive transaction contexts. On exit it prints the final
// snapshot and can dump the retained transactions as Chrome trace
// JSON (load in chrome://tracing or https://ui.perfetto.dev).
//
// `whodunit_top --help` lists the flags. --sample-rate R profiles a fraction R of transactions (the
// production-sampling knob, docs/PRODUCTION.md); the header then shows
// the sampled/total ratio. --history-bytes B bounds the daemon's
// retained-transaction store (oldest evicted first; 0 disables).
//
// --why-tail prints the p99-vs-p50 wait-state differential per
// transaction type (docs/OBSERVABILITY.md §tail diagnosis); --attr-out
// writes the whodunit-attr-v1 folded-stack attribution profile
// (docs/PROFILE_FORMAT.md) for flamegraph tooling; --no-attribution
// turns the critical-path attribution pass off entirely (the ablation
// knob measured by bench_ablation_live_obs).
//
// --shards S > 1 partitions the clients into S independent
// deployments run on --threads workers (sim::ParallelRunner) and
// prints the merged final snapshot; the periodic refresh is disabled
// (the live table callback is not shard-safe).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "src/apps/bookstore/bookstore.h"
#include "src/sim/time.h"
#include "src/util/parse.h"

namespace {

using whodunit::util::ParseNumberOrExit;

// The console's own settings; every simulation knob parses straight
// into BookstoreOptions.
struct Console {
  bool clear_screen = true;
  bool why_tail = false;
  std::string span_out;
  std::string json_out;
  std::string attr_out;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--duration S] [--warmup S] [--clients N]\n"
               "          [--interval S] [--ring N] [--span-out FILE]\n"
               "          [--json-out FILE] [--no-clear] [--seed N]\n"
               "          [--shards S] [--threads T]\n"
               "          [--sample-rate R] [--sample-seed N] [--history-bytes B]\n"
               "          [--publish-batch N]\n"
               "          [--why-tail] [--attr-out FILE] [--no-attribution]\n"
               "          [--arrivals closed|poisson|bursty] [--offered-load TPS]\n",
               argv0);
}

// Numeric flags are range-checked: a malformed or out-of-range value
// prints one line naming the flag and exits 2.
bool ParseFlags(int argc, char** argv, whodunit::apps::BookstoreOptions* o, Console* console) {
  constexpr int64_t kMaxSeconds = 100'000'000;
  constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto integer = [&](int64_t min, int64_t max) {
      return ParseNumberOrExit<int64_t>(arg, value(), min, max);
    };
    const auto seconds = [&](int64_t min) {
      return whodunit::sim::Seconds(integer(min, kMaxSeconds));
    };
    if (arg == "--duration") {
      o->duration = seconds(1);
    } else if (arg == "--warmup") {
      o->warmup = seconds(0);
    } else if (arg == "--clients") {
      o->clients = static_cast<int>(integer(1, std::numeric_limits<int>::max()));
    } else if (arg == "--interval") {
      o->live_poll_interval = seconds(1);
    } else if (arg == "--ring") {
      o->live_span_ring = static_cast<size_t>(integer(0, 1 << 20));
    } else if (arg == "--seed") {
      o->seed = ParseNumberOrExit<uint64_t>(arg, value(), 0, kMaxU64);
    } else if (arg == "--shards") {
      o->shards = static_cast<int>(integer(1, 1024));
    } else if (arg == "--threads") {
      o->threads = static_cast<int>(integer(1, 1024));
    } else if (arg == "--sample-rate") {
      o->sample_rate = ParseNumberOrExit(arg, value(), 0.0, 1.0);
    } else if (arg == "--sample-seed") {
      o->sample_seed = ParseNumberOrExit<uint64_t>(arg, value(), 0, kMaxU64);
    } else if (arg == "--history-bytes") {
      o->live_history_bytes = static_cast<size_t>(integer(0, int64_t{1} << 40));
    } else if (arg == "--publish-batch") {
      o->live_publish_batch = static_cast<size_t>(integer(1, 1 << 20));
    } else if (arg == "--why-tail") {
      console->why_tail = true;
    } else if (arg == "--attr-out") {
      console->attr_out = value();
    } else if (arg == "--no-attribution") {
      o->live_attribution = false;
    } else if (arg == "--arrivals") {
      const std::string kind(value());
      if (!whodunit::workload::ParseArrivalKind(kind, &o->arrivals.kind)) {
        std::fprintf(stderr, "bad --arrivals value: %s\n", kind.c_str());
        return false;
      }
    } else if (arg == "--offered-load") {
      o->arrivals.offered_load_tps = ParseNumberOrExit(arg, value(), 0.0, 1e9);
    } else if (arg == "--span-out") {
      console->span_out = value();
    } else if (arg == "--json-out") {
      console->json_out = value();
    } else if (arg == "--no-clear") {
      console->clear_screen = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return false;
    }
  }
  if (o->warmup >= o->duration) {
    std::fprintf(stderr, "--warmup must be shorter than --duration\n");
    return false;
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "whodunit_top: cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  whodunit::apps::BookstoreOptions options;
  options.duration = whodunit::sim::Seconds(300);
  options.warmup = whodunit::sim::Seconds(30);
  options.live = true;
  Console console;
  if (!ParseFlags(argc, argv, &options, &console)) return 2;

  if (options.shards > 1) {
    // RunBookstore ignores on_live_top when sharded; say so up front
    // rather than silently never refreshing.
    std::printf("[%d shards on %d threads: periodic refresh disabled, "
                "final merged snapshot only]\n",
                options.shards, options.threads);
  } else {
    options.on_live_top = [&console](const std::string& table) {
      if (console.clear_screen) {
        std::fputs("\x1b[H\x1b[2J", stdout);  // cursor home + clear
      }
      std::fputs(table.c_str(), stdout);
      std::fflush(stdout);
    };
  }

  const auto result = whodunit::apps::RunBookstore(options);

  if (console.clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);
  std::fputs(result.live_top_text.c_str(), stdout);
  if (console.why_tail) {
    std::fputs(result.live_why_tail_text.c_str(), stdout);
  }
  std::printf("\n[run complete: %.0f interactions/min, %llu interactions]\n",
              result.throughput_tpm,
              static_cast<unsigned long long>(result.interactions));

  int rc = 0;
  if (!console.attr_out.empty()) {
    if (WriteFile(console.attr_out, result.live_attr_folded)) {
      std::printf("attribution profile written to %s (whodunit-attr-v1)\n",
                  console.attr_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!console.span_out.empty()) {
    if (WriteFile(console.span_out, result.live_span_json)) {
      std::printf("spans written to %s (load in chrome://tracing)\n",
                  console.span_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!console.json_out.empty()) {
    if (WriteFile(console.json_out, result.live_query_json)) {
      std::printf("query snapshot written to %s\n", console.json_out.c_str());
    } else {
      rc = 1;
    }
  }
  return rc;
}
