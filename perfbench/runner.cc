// Host-cost benchmark runner: runs one named workload through the apps'
// public entry points on one thread and reports raw host timings, the
// simulated results' digest and output checks, and the layer counters
// read from obs::Registry() after each run. Each call into the apps runs
// in a process of its own (RunInChild). run.py builds this binary, runs
// it once per workload, and turns the raw JSON into metrics.
//
//   perfbench_runner --workload NAME --seed N --seconds S
//                    [--trace PATH] [--force-fail]
//
// Without --trace the runner times the workload's own configuration
// (the end-to-end run). With --trace it runs the per-layer arms
// (profiler mode kNone / kCsprof / kWhodunit, live and attribution on
// and off), the sim and shm replays, and an untraced copy of the
// main arm, and writes one span per arm and replay call to PATH as
// Chrome trace-event JSON at exit.
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/bookstore/bookstore.h"
#include "src/apps/minihttpd/minihttpd.h"
#include "src/apps/miniproxy/miniproxy.h"
#include "src/apps/sedaserver/sedaserver.h"
#include "src/callpath/profiler_mode.h"
#include "src/obs/metrics.h"
#include "src/shm/flow_detector.h"
#include "src/shm/guest_code.h"
#include "src/shm/section_cache.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/scheduler.h"
#include "src/vm/interpreter.h"
#include "src/vm/memory.h"

namespace {

using namespace whodunit;
using callpath::ProfilerMode;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// ---- Spans ---------------------------------------------------------------

// In-memory span log around the runner's calls into each layer; written
// as Chrome trace-event JSON at exit. Disabled spans cost one branch.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  // index into spans_, -1 for a root
  };

  bool enabled = false;

  int Begin(const std::string& name) {
    if (!enabled) {
      return -1;
    }
    spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d}}",
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
      out << (i ? "," : "") << "{\"name\":\"" << s.name << "\"," << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

SpanLog g_spans;

struct SpanScope {
  explicit SpanScope(const std::string& name) : id(g_spans.Begin(name)) {}
  ~SpanScope() { g_spans.End(id); }
  int id;
};

// ---- Results -------------------------------------------------------------

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

// A simulated headline number beside the value the paper reports.
struct PaperValue {
  std::string name;
  double simulated;
  double paper;
};

// Everything one call into an app reports: host wall time, the
// simulated transactions it completed, its output checks, a digest of
// its simulated results, and the registry it instrumented.
struct RunOutcome {
  int64_t wall_ns = 0;
  uint64_t txns = 0;
  std::vector<Check> checks;
  std::string digest;  // FNV-1a of the simulated results, in hex
  // The call's registry counters and gauges; summed over both apps when
  // a workload calls two.
  obs::MetricsSnapshot metrics;
  std::vector<PaperValue> paper;
  double objects_per_connection = 0;  // minihttpd section mix
  int64_t max_rss_kb = 0;             // peak RSS of the process that made the call
};

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// Appends `name=value;` with every digit of a double, so the digest
// covers the exact simulated numbers.
class DigestWriter {
 public:
  DigestWriter& Num(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << name << '=' << buf << ';';
    return *this;
  }
  DigestWriter& Int(const char* name, uint64_t v) {
    out_ << name << '=' << v << ';';
    return *this;
  }
  DigestWriter& Text(const char* name, const std::string& v) {
    out_ << name << '=' << v.size() << ':' << v << ';';
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

std::string Digest(const DigestWriter& d) { return Hex64(Fnv1a(d.str())); }

bool g_force_fail = false;

void AddCheck(RunOutcome& out, const std::string& name, bool ok, const std::string& detail) {
  out.checks.push_back({name, ok, detail});
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

// ---- Workloads -----------------------------------------------------------

// One arm of a workload: the profiler mode and live-observability knobs
// that the per-layer split varies. `main` is the workload's own setting.
struct Arm {
  std::string name;
  ProfilerMode mode = ProfilerMode::kWhodunit;
  bool live = false;
  bool attribution = true;
  bool main = false;
};

struct Workload {
  std::string name;
  std::string options;  // as the report prints them; all runs use threads=1 shards=1
  // Calls the apps once with an arm's settings. `setup_only` runs the same
  // options for a near-zero simulated duration, which times deployment
  // set-up and teardown.
  std::function<RunOutcome(const Arm&, uint64_t seed, bool setup_only)> run;
  std::vector<Arm> arms;  // arms[0] is the main arm
};

// Runs `fn` inside a fresh shard environment (registry, context tree,
// trace log, symbol table, id allocators), so every call starts from
// the same state and its counters describe that call alone.
template <typename Fn>
int64_t TimedIsolated(obs::MetricsSnapshot* metrics, Fn&& fn) {
  sim::ShardEnv env;
  int64_t wall = 0;
  {
    sim::ShardEnv::Scope scope(env);
    const int64_t t0 = NowNs();
    fn();
    wall = NowNs() - t0;
  }
  *metrics = env.metrics().Snapshot();
  return wall;
}

void MergeSnapshot(obs::MetricsSnapshot& into, const obs::MetricsSnapshot& from) {
  for (const auto& [k, v] : from.counters) {
    into.counters[k] += v;
  }
  for (const auto& [k, v] : from.gauges) {
    // Peak depth is a high-water mark: two sequential apps peak at the
    // larger of the two. Other gauges (sizes) add.
    if (k == "sim.queue_peak_depth") {
      into.gauges[k] = std::max(into.gauges[k], v);
    } else {
      into.gauges[k] += v;
    }
  }
}

uint64_t Counter(const obs::MetricsSnapshot& m, const char* name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}
int64_t Gauge(const obs::MetricsSnapshot& m, const char* name) {
  auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0 : it->second;
}

constexpr double kPaperFig12CachedTpm = 3376.0;
constexpr double kPaperSec92ProfiledMbps = 384.58;
constexpr double kPaperSec93SquidProfiledMbps = 247.85;
constexpr double kPaperSec93HaboobProfiledMbps = 29.84;

// Bookstore checks shared by both TPC-W workloads.
void CheckBookstore(RunOutcome& out, const apps::BookstoreResult& r, const Arm& arm) {
  double worst = 0;
  for (const auto& row : r.per_type) {
    worst = std::max(worst, std::abs(row.db_cpu_percent - row.db_cpu_percent_ground));
  }
  const double limit = g_force_fail ? -1.0 : 2.5;
  AddCheck(out, "tpcw.db_cpu_percent_vs_ground", worst <= limit,
           Fmt("max |label - ground| = %.3f points (limit %.1f)", worst, limit));
  AddCheck(out, "tpcw.db_shm_flows_zero", r.db_shm_flows == 0,
           Fmt("db_shm_flows = %.0f", static_cast<double>(r.db_shm_flows)));
  AddCheck(out, "tpcw.db_shared_state_demoted", r.db_shared_state_demoted,
           r.db_shared_state_demoted ? "demoted" : "not demoted");
  AddCheck(out, "tpcw.interactions_positive", r.interactions > 0,
           Fmt("interactions = %.0f", static_cast<double>(r.interactions)));
  if (arm.live) {
    // The query API's top-level transaction count.
    const std::string& q = r.live_query_json;
    const size_t at = q.find("\"txns\":");
    const uint64_t txns =
        at == std::string::npos ? 0 : std::strtoull(q.c_str() + at + 7, nullptr, 10);
    AddCheck(out, "live.query_txns_positive", txns > 0,
             Fmt("query json txns = %.0f", static_cast<double>(txns)));
  }
}

DigestWriter DigestBookstore(const apps::BookstoreResult& r) {
  DigestWriter d;
  d.Num("throughput_tpm", r.throughput_tpm).Int("interactions", r.interactions);
  for (const auto& row : r.per_type) {
    d.Int("count", row.count)
        .Num("mean_response_ms", row.mean_response_ms)
        .Num("db_cpu_percent", row.db_cpu_percent)
        .Num("db_cpu_percent_ground", row.db_cpu_percent_ground)
        .Num("mean_crosstalk_ms", row.mean_crosstalk_ms);
  }
  d.Int("payload_bytes", r.payload_bytes)
      .Int("context_bytes", r.context_bytes)
      .Text("db_profile", r.db_profile_text)
      .Text("crosstalk", r.crosstalk_text)
      .Text("stitched", r.stitched_text)
      .Text("stitched_dot", r.stitched_dot)
      .Text("who_causes_sort", r.who_causes_sort)
      .Int("db_shm_flows", r.db_shm_flows)
      .Int("db_shared_state_demoted", r.db_shared_state_demoted)
      .Num("db_utilization", r.db_utilization)
      .Num("tomcat_utilization", r.tomcat_utilization)
      .Num("proxy_utilization", r.proxy_utilization)
      .Text("live_top", r.live_top_text)
      .Text("live_query", r.live_query_json)
      .Text("live_span", r.live_span_json)
      .Text("live_why_tail", r.live_why_tail_text)
      .Text("live_attr", r.live_attr_folded)
      .Int("sim_events", r.sim_events)
      .Int("peak_event_queue_depth", r.peak_event_queue_depth);
  return d;
}

// The bookstore with servlet caching and 450 clients, browsing mix.
// Closed loop is the Fig. 12 peak; `open_loop` drives Poisson arrivals
// at 40 txn/s instead. Arms with `live` on add the lifecycle checks.
RunOutcome RunTpcw(const Arm& arm, uint64_t seed, bool setup_only, bool open_loop) {
  apps::BookstoreOptions o;
  o.mode = arm.mode;
  o.clients = 450;
  o.servlet_caching = true;
  if (open_loop) {
    o.arrivals.kind = workload::ArrivalKind::kPoisson;
    o.arrivals.offered_load_tps = 40.0;
  }
  o.duration = setup_only ? sim::Millis(1) : sim::Seconds(1800);
  o.warmup = setup_only ? 0 : sim::Seconds(300);
  o.seed = seed;
  o.live = arm.live;
  o.live_attribution = arm.attribution;
  RunOutcome out;
  apps::BookstoreResult r;
  out.wall_ns = TimedIsolated(&out.metrics, [&] { r = apps::RunBookstore(o); });
  out.txns = r.interactions;
  if (!setup_only && arm.main) {
    CheckBookstore(out, r, arm);
  }
  if (!setup_only && arm.main && arm.live) {
    // docs/METRICS.md lifecycle invariants, read after shutdown.
    const obs::MetricsSnapshot& m = out.metrics;
    const uint64_t begun = Counter(m, "live.txns_begun");
    const uint64_t published = Counter(m, "live.txns_published");
    const uint64_t abandoned = Counter(m, "live.txns_abandoned");
    const uint64_t dropped = Counter(m, "live.txns_dropped");
    const uint64_t ingested = Counter(m, "live.txns_ingested");
    const int64_t inflight = Gauge(m, "live.inflight_txns");
    AddCheck(out, "live.begun_reconciles",
             begun > 0 && begun == published + abandoned + static_cast<uint64_t>(inflight),
             "begun=" + std::to_string(begun) + " published=" + std::to_string(published) +
                 " abandoned=" + std::to_string(abandoned) +
                 " inflight=" + std::to_string(inflight) +
                 " dropped=" + std::to_string(dropped));
    AddCheck(out, "live.ingested_equals_published", ingested == published,
             "ingested=" + std::to_string(ingested) + " published=" + std::to_string(published));
  }
  out.digest = Digest(DigestBookstore(r));
  if (!open_loop) {
    out.paper = {{"fig12_cached_tpm", r.throughput_tpm, kPaperFig12CachedTpm}};
  }
  return out;
}

// §9.2: 64 clients, 8 workers, non-persistent connections.
RunOutcome RunApacheChurn(const Arm& arm, uint64_t seed, bool setup_only) {
  apps::MinihttpdOptions o;
  o.mode = arm.mode;
  o.clients = 64;
  o.workers = 8;
  o.persistent_connections = false;
  o.duration = setup_only ? sim::Millis(1) : sim::Seconds(30);
  o.seed = seed;
  o.live = arm.live;
  RunOutcome out;
  apps::MinihttpdResult r;
  out.wall_ns = TimedIsolated(&out.metrics, [&] { r = apps::RunMinihttpd(o); });
  out.txns = r.requests;
  out.objects_per_connection =
      r.connections ? static_cast<double>(r.requests) / static_cast<double>(r.connections) : 0;
  if (!setup_only && arm.main) {
    AddCheck(out, "apache.queue_flow_detected", r.queue_flow_detected,
             r.queue_flow_detected ? "detected" : "not detected");
    AddCheck(out, "apache.allocator_demoted", r.allocator_demoted,
             r.allocator_demoted ? "demoted" : "not demoted");
    // Fig. 8: one flow per connection through the queue, give or take
    // the connections still queued or in service when the run stops.
    const double gap =
        std::abs(static_cast<double>(r.flows_detected) - static_cast<double>(r.connections));
    const double limit = g_force_fail ? -1.0 : 8.0;
    AddCheck(out, "apache.flows_match_connections", r.connections > 0 && gap <= limit,
             Fmt("flows=%.0f connections=%.0f (limit %.0f)",
                 static_cast<double>(r.flows_detected), static_cast<double>(r.connections),
                 limit));
  }
  DigestWriter d;
  d.Num("throughput_mbps", r.throughput_mbps)
      .Int("requests", r.requests)
      .Int("connections", r.connections)
      .Int("bytes_served", r.bytes_served)
      .Int("flows_detected", r.flows_detected)
      .Int("queue_flow_detected", r.queue_flow_detected)
      .Int("allocator_demoted", r.allocator_demoted)
      .Int("critical_sections_emulated", r.critical_sections_emulated)
      .Num("listener_context_share", r.listener_context_share)
      .Num("worker_context_share", r.worker_context_share)
      .Int("origin_cpu_ns", r.origin_cpu_ns)
      .Int("total_cpu_ns", r.total_cpu_ns)
      .Text("profile", r.profile_text)
      .Text("live_top", r.live_top_text)
      .Text("live_span", r.live_span_json);
  out.digest = Digest(d);
  out.paper = {{"sec92_profiled_mbps", r.throughput_mbps, kPaperSec92ProfiledMbps}};
  return out;
}

// §9.3: miniproxy (events loop), then sedaserver (SEDA stages), 64
// clients each.
RunOutcome RunProxySeda(const Arm& arm, uint64_t seed, bool setup_only) {
  apps::MiniproxyOptions po;
  po.mode = arm.mode;
  po.clients = 64;
  po.duration = setup_only ? sim::Millis(1) : sim::Seconds(30);
  po.seed = seed;
  apps::SedaServerOptions so;
  so.mode = arm.mode;
  so.clients = 64;
  so.duration = po.duration;
  so.seed = seed;
  so.live = arm.live;

  RunOutcome out;
  apps::MiniproxyResult pr;
  apps::SedaServerResult sr;
  obs::MetricsSnapshot seda_metrics;
  out.wall_ns = TimedIsolated(&out.metrics, [&] { pr = apps::RunMiniproxy(po); }) +
                TimedIsolated(&seda_metrics, [&] { sr = apps::RunSedaServer(so); });
  MergeSnapshot(out.metrics, seda_metrics);
  out.txns = pr.requests + sr.requests;
  if (!setup_only && arm.main) {
    const size_t want = g_force_fail ? 3 : 2;
    AddCheck(out, "proxy.write_handler_context_count", pr.write_handler_context_count == want,
             "count = " + std::to_string(pr.write_handler_context_count) +
                 " (want " + std::to_string(want) + ")");
    AddCheck(out, "seda.write_stage_context_count", sr.write_stage_context_count == 2,
             "count = " + std::to_string(sr.write_stage_context_count) + " (want 2)");
  }
  DigestWriter d;
  d.Num("proxy.throughput_mbps", pr.throughput_mbps)
      .Int("proxy.requests", pr.requests)
      .Int("proxy.cache_hits", pr.cache_hits)
      .Int("proxy.cache_misses", pr.cache_misses)
      .Num("proxy.hit_ratio", pr.hit_ratio)
      .Int("proxy.write_handler_context_count", pr.write_handler_context_count)
      .Num("proxy.hit_path_share", pr.hit_path_share)
      .Num("proxy.miss_path_share", pr.miss_path_share)
      .Int("proxy.total_cpu_ns", pr.total_cpu_ns)
      .Text("proxy.profile", pr.profile_text)
      .Num("seda.throughput_mbps", sr.throughput_mbps)
      .Int("seda.requests", sr.requests)
      .Int("seda.cache_hits", sr.cache_hits)
      .Int("seda.cache_misses", sr.cache_misses)
      .Int("seda.write_stage_context_count", sr.write_stage_context_count)
      .Num("seda.write_hit_share", sr.write_hit_share)
      .Num("seda.write_miss_share", sr.write_miss_share)
      .Int("seda.total_cpu_ns", sr.total_cpu_ns)
      .Text("seda.profile", sr.profile_text)
      .Text("seda.live_top", sr.live_top_text);
  out.digest = Digest(d);
  out.paper = {
      {"sec93_squid_profiled_mbps", pr.throughput_mbps, kPaperSec93SquidProfiledMbps},
      {"sec93_haboob_profiled_mbps", sr.throughput_mbps, kPaperSec93HaboobProfiledMbps}};
  return out;
}

std::vector<Arm> ModeArms(bool live) {
  std::vector<Arm> arms;
  Arm main{"main", ProfilerMode::kWhodunit, live, true, true};
  arms.push_back(main);
  arms.push_back({"none", ProfilerMode::kNone, false, true, false});
  arms.push_back({"csprof", ProfilerMode::kCsprof, false, true, false});
  if (live) {
    arms.push_back({"whodunit_live_off", ProfilerMode::kWhodunit, false, true, false});
    arms.push_back({"live_attr_off", ProfilerMode::kWhodunit, true, false, false});
  }
  return arms;
}

std::vector<Workload> Workloads() {
  return {
      {"tpcw_cached_closed",
       "RunBookstore: browsing mix, servlet_caching, 450 closed-loop clients, kWhodunit, "
       "live off, 1800 s (300 s warmup)",
       [](const Arm& arm, uint64_t seed, bool setup_only) {
         return RunTpcw(arm, seed, setup_only, /*open_loop=*/false);
       },
       ModeArms(false)},
      {"apache_churn",
       "RunMinihttpd: 64 clients, 8 workers, non-persistent connections, kWhodunit, 30 s",
       RunApacheChurn, ModeArms(false)},
      {"tpcw_live_open",
       "RunBookstore: browsing mix, servlet_caching, Poisson arrivals at 40 txn/s, kWhodunit, "
       "live with attribution and 1 MiB history, 1800 s (300 s warmup)",
       [](const Arm& arm, uint64_t seed, bool setup_only) {
         return RunTpcw(arm, seed, setup_only, /*open_loop=*/true);
       },
       ModeArms(true)},
      {"proxy_seda",
       "RunMiniproxy then RunSedaServer: 64 clients each, kWhodunit, 30 s each",
       RunProxySeda, ModeArms(false)},
  };
}

// ---- Layer replays -------------------------------------------------------

// Classic hold model on the production calendar: `depth` pending
// events; each fired event schedules one successor an exponential gap
// (mean 1 virtual ms) later, so the calendar stays at `depth` while
// every Step is one pop plus one push.
struct HoldModel {
  sim::Scheduler sched;
  std::mt19937_64 rng;
  std::exponential_distribution<double> gap{1.0 / 1e6};
  sim::SimTime Next() { return static_cast<sim::SimTime>(gap(rng)) + 1; }
};

struct HoldEvent {
  HoldModel* model;
  void operator()() const { model->sched.ScheduleAfter(model->Next(), HoldEvent{model}); }
};

double HoldNsPerOp(size_t depth, uint64_t seed, uint64_t ops) {
  SpanScope span("replay.sim.hold depth=" + std::to_string(depth));
  obs::MetricsSnapshot unused;
  double ns = 0;
  TimedIsolated(&unused, [&] {
    HoldModel model;
    model.rng.seed(seed);
    for (size_t i = 0; i < depth; ++i) {
      model.sched.ScheduleAfter(model.Next(), HoldEvent{&model});
    }
    for (size_t i = 0; i < depth; ++i) {  // settle the calendar's shape
      model.sched.Step();
    }
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < ops; ++i) {
      model.sched.Step();
    }
    ns = static_cast<double>(NowNs() - t0) / static_cast<double>(ops);
  });
  return ns;
}

// Runs one guest critical section the way the apps do: emulated through
// the section cache while the detector still watches the lock, direct
// otherwise. Returns true when it was emulated.
bool RunSection(vm::Interpreter& interp, shm::SectionCache& cache, shm::FlowDetector& det,
                const vm::Program& prog, uint64_t lock, vm::ThreadId t, vm::CpuState& cpu,
                vm::Memory& mem) {
  if (det.ShouldEmulate(lock)) {
    cache.Run(interp, prog, t, cpu, mem, &det);
    return true;
  }
  interp.Execute(prog, t, cpu, mem, nullptr, vm::Interpreter::Mode::kDirect);
  return false;
}

struct ShmReplay {
  uint64_t sections = 0;
  int64_t wall_ns = 0;
};

// minihttpd's section mix: per connection, the listener (thread 0)
// pushes onto the fd queue and a worker pops it; per request the
// worker allocates from the shared pool, bumps the stats counter and
// frees. Runs until `target` sections were emulated.
ShmReplay ReplayApacheSections(uint64_t target, double objects_per_connection) {
  constexpr uint64_t kQueueLock = 1, kAllocLock = 2, kStatsLock = 3;
  constexpr uint64_t kQueue = 0x1000, kCounter = 0x5000, kFreeList = 0x6000;
  constexpr uint64_t kBlocks = 0x10000, kScratch = 0x20000;
  constexpr int kWorkers = 8;
  std::vector<shm::CtxtId> ctxt(kWorkers + 1);
  for (size_t t = 0; t < ctxt.size(); ++t) {
    ctxt[t] = static_cast<shm::CtxtId>(t + 1);
  }
  vm::Memory mem;
  vm::Interpreter interp;
  shm::SectionCache cache;
  shm::FlowDetector det([&ctxt](vm::ThreadId t) { return ctxt[t]; });
  det.set_flow_callback([&ctxt](const shm::FlowEvent& ev) { ctxt[ev.consumer] = ev.ctxt; });
  const vm::Program push = shm::ApQueuePush(kQueueLock);
  const vm::Program pop = shm::ApQueuePop(kQueueLock);
  const vm::Program alloc = shm::MemAlloc(kAllocLock);
  const vm::Program free_blk = shm::MemFree(kAllocLock);
  const vm::Program counter = shm::CounterIncrement(kStatsLock);
  uint64_t head = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    mem.Write(kBlocks + i * 64, head);
    head = kBlocks + i * 64;
  }
  mem.Write(kFreeList, head);
  std::vector<vm::CpuState> cpu(kWorkers + 1);

  ShmReplay out;
  const int64_t t0 = NowNs();
  double objects_due = 0;
  for (uint64_t conn = 1; out.sections < target && conn <= 16 * target + 1024; ++conn) {
    cpu[0].regs[0] = kQueue;
    cpu[0].regs[1] = conn;
    cpu[0].regs[2] = conn + 1;
    out.sections += RunSection(interp, cache, det, push, kQueueLock, 0, cpu[0], mem);
    const auto w = static_cast<vm::ThreadId>(1 + conn % kWorkers);
    cpu[w].regs[0] = kQueue;
    cpu[w].regs[5] = kScratch + w * 64;
    cpu[w].regs[6] = kScratch + w * 64 + 8;
    out.sections += RunSection(interp, cache, det, pop, kQueueLock, w, cpu[w], mem);
    for (objects_due += objects_per_connection; objects_due >= 1; objects_due -= 1) {
      cpu[w].regs[0] = kFreeList;
      out.sections += RunSection(interp, cache, det, alloc, kAllocLock, w, cpu[w], mem);
      const uint64_t blk = cpu[w].regs[1];
      cpu[w].regs[0] = kCounter;
      out.sections += RunSection(interp, cache, det, counter, kStatsLock, w, cpu[w], mem);
      if (blk != 0) {
        cpu[w].regs[0] = kFreeList;
        cpu[w].regs[1] = blk;
        out.sections += RunSection(interp, cache, det, free_blk, kAllocLock, w, cpu[w], mem);
      }
    }
  }
  out.wall_ns = NowNs() - t0;
  return out;
}

// The bookstore's MySQL section mix: each query reads or writes a row
// under the buffer mutex and bumps the shared statistics counter, on
// one of 24 server threads. Stops at `target` emulated sections or once
// both locks are demoted (every later section runs natively).
ShmReplay ReplayMysqlSections(uint64_t target, uint64_t seed) {
  constexpr uint64_t kBufferLock = 1, kCounterLock = 2;
  constexpr uint64_t kTable = 0xA000, kCounter = 0x5000;
  constexpr int kThreads = 24;
  std::vector<shm::CtxtId> ctxt(kThreads);
  vm::Memory mem;
  vm::Interpreter interp;
  shm::SectionCache cache;
  shm::FlowDetector det([&ctxt](vm::ThreadId t) { return ctxt[t]; });
  const vm::Program read = shm::TableRead(kBufferLock);
  const vm::Program write = shm::TableWrite(kBufferLock);
  const vm::Program counter = shm::CounterIncrement(kCounterLock);
  std::vector<vm::CpuState> cpu(kThreads);
  std::mt19937_64 rng(seed);

  ShmReplay out;
  const int64_t t0 = NowNs();
  for (uint64_t q = 0; out.sections < target && q < 16 * target + 1024; ++q) {
    if (!det.ShouldEmulate(kBufferLock) && !det.ShouldEmulate(kCounterLock)) {
      break;
    }
    const auto t = static_cast<vm::ThreadId>(q % kThreads);
    ctxt[t] = static_cast<shm::CtxtId>(1 + rng() % 14);  // one of the TPC-W types
    const uint64_t row = rng();
    cpu[t].regs[0] = kTable;
    cpu[t].regs[1] = row % 64;
    cpu[t].regs[2] = row | 1;
    out.sections += RunSection(interp, cache, det, (row & 3) == 0 ? write : read, kBufferLock,
                               t, cpu[t], mem);
    cpu[t].regs[0] = kCounter;
    out.sections += RunSection(interp, cache, det, counter, kCounterLock, t, cpu[t], mem);
  }
  out.wall_ns = NowNs() - t0;
  return out;
}

// Two fixed reference kernels timed between measured calls; their code
// never changes with the program. On a shared host the apps slow down in
// bursts when other tenants load the CPU, the shared cache or the
// hypervisor, and the kernels slow down with them, so run.py uses their
// times to take the machine's state out of the apps' host times.
//
// CalibrationNs: pointer chasing over 8 MB, a 1024-entry binary heap and
// a 64K-slot hash table, all allocated once (the apps' own computation).
volatile uint64_t g_calib_sink = 0;  // keeps the kernel's work observable

int64_t CalibrationNs() {
  struct State {
    std::vector<uint32_t> ring = std::vector<uint32_t>(1 << 21);
    std::vector<uint64_t> heap;
    std::vector<uint64_t> table = std::vector<uint64_t>(1 << 16);
    State() {
      for (uint32_t i = 0; i < ring.size(); ++i) {
        ring[i] = i;
      }
      std::mt19937_64 g(7);
      for (uint32_t i = static_cast<uint32_t>(ring.size()) - 1; i > 0; --i) {  // Sattolo
        std::swap(ring[i], ring[g() % i]);
      }
      heap.reserve(2048);
    }
  };
  static State st;
  std::mt19937_64 rng(11);
  st.heap.clear();
  uint64_t sink = 0;
  uint32_t p = 0;
  int64_t t0 = 0;
  // The first 50000 steps are an untimed lead-in: right after a call the
  // caches still hold the program's dirty lines, whose write-back would
  // otherwise be charged to the machine.
  for (int i = -50000; i < 250000; ++i) {
    if (i == 0) {
      t0 = NowNs();
    }
    st.heap.push_back(rng() & 0xffffff);
    std::push_heap(st.heap.begin(), st.heap.end(), std::greater<>());
    if (st.heap.size() > 1024) {
      std::pop_heap(st.heap.begin(), st.heap.end(), std::greater<>());
      sink += st.heap.back();
      st.heap.pop_back();
    }
    st.table[(rng() * 0x9E3779B97F4A7C15ull) >> 48] += static_cast<uint64_t>(i);
    p = st.ring[p];
    p = st.ring[p];
  }
  const int64_t elapsed = NowNs() - t0;
  g_calib_sink = sink + p;
  return elapsed;
}

// FaultProbeNs: first touch of 16 MB of fresh anonymous memory, then its
// release. Each call runs in a new process and pays for its own page
// faults, which cost far more, and vary far more, inside a VM.
int64_t FaultProbeNs() {
  constexpr size_t kBytes = size_t{16} << 20;
  const int64_t t0 = NowNs();
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("perfbench_runner: mmap");
    std::exit(1);
  }
  auto* bytes = static_cast<volatile char*>(mem);
  for (size_t i = 0; i < kBytes; i += 4096) {
    bytes[i] = 1;
  }
  munmap(mem, kBytes);
  return NowNs() - t0;
}

// ---- JSON output ---------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string JsonList(const std::vector<T>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + JsonNum(static_cast<double>(v[i]));
  }
  return out + "]";
}

std::string JsonMetrics(const obs::MetricsSnapshot& m) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : m.counters) {
    out += (first ? "" : ",") + JsonString(k) + ":" + std::to_string(v);
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : m.gauges) {
    out += (first ? "" : ",") + JsonString(k) + ":" + std::to_string(v);
    first = false;
  }
  return out + "}}";
}

// ---- One process per call ------------------------------------------------

// Every call into the apps runs in a child forked from the runner, which
// never calls the apps itself. So each call starts the way a real run of
// the apps does, on a heap that has not grown yet: it pays for its own
// page faults and heap growth, and its peak RSS is its own. The child
// sends its outcome back over a pipe as tab-separated lines.

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "perfbench_runner: %s: %s\n", what, std::strerror(errno));
  std::exit(1);
}

std::string Serialize(const RunOutcome& out) {
  std::ostringstream s;
  s << "wall_ns\t" << out.wall_ns << "\ntxns\t" << out.txns << "\ndigest\t" << out.digest
    << "\nobjects_per_connection\t" << JsonNum(out.objects_per_connection) << '\n';
  for (const Check& c : out.checks) {
    s << "check\t" << c.ok << '\t' << c.name << '\t' << c.detail << '\n';
  }
  for (const PaperValue& p : out.paper) {
    s << "paper\t" << p.name << '\t' << JsonNum(p.simulated) << '\t' << JsonNum(p.paper) << '\n';
  }
  for (const auto& [k, v] : out.metrics.counters) {
    s << "counter\t" << k << '\t' << v << '\n';
  }
  for (const auto& [k, v] : out.metrics.gauges) {
    s << "gauge\t" << k << '\t' << v << '\n';
  }
  return s.str();
}

RunOutcome Deserialize(const std::string& text) {
  RunOutcome out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> f;
    for (size_t at = 0;;) {
      const size_t tab = line.find('\t', at);
      f.push_back(line.substr(at, tab - at));
      if (tab == std::string::npos) {
        break;
      }
      at = tab + 1;
    }
    const std::string& key = f[0];
    if (key == "wall_ns") {
      out.wall_ns = std::stoll(f[1]);
    } else if (key == "txns") {
      out.txns = std::stoull(f[1]);
    } else if (key == "digest") {
      out.digest = f[1];
    } else if (key == "objects_per_connection") {
      out.objects_per_connection = std::stod(f[1]);
    } else if (key == "check") {
      out.checks.push_back({f[2], f[1] == "1", f[3]});
    } else if (key == "paper") {
      out.paper.push_back({f[1], std::stod(f[2]), std::stod(f[3])});
    } else if (key == "counter") {
      out.metrics.counters[f[1]] = std::stoull(f[2]);
    } else if (key == "gauge") {
      out.metrics.gauges[f[1]] = std::stoll(f[2]);
    }
  }
  return out;
}

RunOutcome RunInChild(const std::function<RunOutcome()>& call) {
  int fds[2];
  if (pipe(fds) != 0) {
    Die("pipe");
  }
  std::fflush(nullptr);  // so that nothing buffered is written twice
  const pid_t pid = fork();
  if (pid < 0) {
    Die("fork");
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string text = Serialize(call());
    for (size_t done = 0; done < text.size();) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n < 0 && errno != EINTR) {
        _exit(1);
      }
      done += n > 0 ? static_cast<size_t>(n) : 0;
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  struct rusage usage = {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      Die("wait4");
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench_runner: a call's process failed (wait status %d)\n", status);
    std::exit(1);
  }
  RunOutcome out = Deserialize(text);
  out.max_rss_kb = usage.ru_maxrss;
  return out;
}

// One measured call into the apps, in call order.
struct Call {
  std::string arm;
  bool traced;
  int64_t wall_ns;
  uint64_t txns;
  uint64_t events;
  int64_t max_rss_kb;
  size_t calib;  // calibration `calib` was timed just before the call
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "[--trace PATH] [--force-fail]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, trace_path;
  uint64_t seed = 0;
  double seconds = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (a == "--force-fail") {
      g_force_fail = true;
    } else {
      return Usage();
    }
  }
  const std::vector<Workload> workloads = Workloads();
  const Workload* wl = nullptr;
  for (const Workload& w : workloads) {
    if (w.name == workload_name) {
      wl = &w;
    }
  }
  if (wl == nullptr || !have_seed || !(seconds > 0)) {
    return Usage();
  }
  const bool traced = !trace_path.empty();
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);

  // Set-up cost: the main arm's options with a near-zero simulated
  // duration. Untraced runs repeat it between measured calls, so its
  // samples span the whole run.
  std::vector<int64_t> setup_ns;
  std::vector<size_t> setup_calib;  // the calibration timed right after each set-up
  std::vector<int64_t> calib_ns, fault_ns;
  auto setup = [&] {
    setup_ns.push_back(
        RunInChild([&] { return wl->run(wl->arms[0], seed, /*setup_only=*/true); }).wall_ns);
    setup_calib.push_back(calib_ns.size());
  };
  auto calibrate = [&] {
    calib_ns.push_back(CalibrationNs());
    fault_ns.push_back(FaultProbeNs());
  };
  setup();

  // Measured calls. Untraced: the main arm until the budget is spent.
  // Traced: every arm round-robin, plus one untraced main-arm call per
  // round for the tracing overhead. Every arm runs at least three times.
  const std::vector<Arm> arms = traced ? wl->arms : std::vector<Arm>{wl->arms[0]};
  std::vector<Call> calls;
  RunOutcome first_main;
  std::string first_digest;
  uint64_t runs_checked = 0, runs_failed = 0;
  std::vector<std::string> failures;
  const int64_t start = NowNs();
  g_spans.enabled = traced;
  const int root = g_spans.Begin("workload " + wl->name);
  auto measure = [&](const Arm& arm, bool span_on, int round) {
    calibrate();
    RunOutcome out;
    g_spans.enabled = span_on;
    {
      SpanScope span("arm " + arm.name + " round " + std::to_string(round));
      out = RunInChild([&] { return wl->run(arm, seed, false); });
    }
    g_spans.enabled = traced;
    calls.push_back({arm.name, span_on, out.wall_ns, out.txns,
                     Counter(out.metrics, "sim.events_executed"), out.max_rss_kb,
                     calib_ns.size() - 1});
    if (!arm.main) {
      return;
    }
    // Every main-arm call is checked, and must reproduce the first
    // call's simulated results exactly.
    const std::string& digest = out.digest;
    bool ok = true;
    for (const Check& c : out.checks) {
      if (!c.ok) {
        ok = false;
        failures.push_back(c.name + ": " + c.detail);
      }
    }
    if (runs_checked == 0) {
      first_digest = digest;
      first_main = out;
    } else if (digest != first_digest) {
      ok = false;
      failures.push_back("digest_stable: call " + std::to_string(runs_checked) + " gave " +
                         digest + ", first call gave " + first_digest);
    }
    ++runs_checked;
    runs_failed += ok ? 0 : 1;
  };
  for (int round = 0; round < 3 || NowNs() - start < budget_ns; ++round) {
    for (const Arm& arm : arms) {
      measure(arm, traced, round);
    }
    if (traced) {
      measure(wl->arms[0], false, round);
    } else {
      setup();
      setup();
    }
  }

  calibrate();

  // Replays, sized from the main arm's own counters.
  std::vector<double> hold_ns;
  std::vector<double> shm_ns_per_section;
  const auto peak_depth = static_cast<size_t>(Gauge(first_main.metrics, "sim.queue_peak_depth"));
  const uint64_t app_sections = Counter(first_main.metrics, "shm.critical_sections");
  uint64_t replay_sections = 0;
  if (traced) {
    for (int i = 0; i < 3; ++i) {
      hold_ns.push_back(HoldNsPerOp(peak_depth, seed + static_cast<uint64_t>(i), 300000));
    }
    for (int i = 0; app_sections > 0 && i < 3; ++i) {
      SpanScope span("replay.shm.sections target=" + std::to_string(app_sections));
      obs::MetricsSnapshot unused;
      ShmReplay r;
      TimedIsolated(&unused, [&] {
        r = wl->name == "apache_churn"
                ? ReplayApacheSections(app_sections, first_main.objects_per_connection)
                : ReplayMysqlSections(app_sections, seed);
      });
      replay_sections = r.sections;
      if (r.sections > 0) {
        shm_ns_per_section.push_back(static_cast<double>(r.wall_ns) /
                                     static_cast<double>(r.sections));
      }
    }
  }
  g_spans.End(root);
  if (traced && !g_spans.Write(trace_path)) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n", trace_path.c_str());
    return 1;
  }

  std::string json = "{\"workload\":" + JsonString(wl->name) +
                     ",\"options\":" + JsonString(wl->options) +
                     ",\"seed\":" + std::to_string(seed) +
                     ",\"traced\":" + (traced ? "true" : "false") +
                     ",\"setup_ns\":" + JsonList(setup_ns) +
                     ",\"setup_calib\":" + JsonList(setup_calib) + ",\"calls\":[";
  for (size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    json += (i ? "," : "") + std::string("{\"arm\":") + JsonString(c.arm) +
            ",\"traced\":" + (c.traced ? "true" : "false") +
            ",\"wall_ns\":" + std::to_string(c.wall_ns) + ",\"txns\":" + std::to_string(c.txns) +
            ",\"events\":" + std::to_string(c.events) +
            ",\"max_rss_kb\":" + std::to_string(c.max_rss_kb) +
            ",\"calib\":" + std::to_string(c.calib) + "}";
  }
  json += "],\"calib_ns\":" + JsonList(calib_ns) + ",\"fault_ns\":" + JsonList(fault_ns);
  json += ",\"runs_checked\":" + std::to_string(runs_checked) +
          ",\"runs_failed\":" + std::to_string(runs_failed) + ",\"failures\":[";
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    json += (i ? "," : "") + JsonString(failures[i]);
  }
  json += "],\"checks\":[";
  for (size_t i = 0; i < first_main.checks.size(); ++i) {
    const Check& c = first_main.checks[i];
    json += (i ? "," : "") + std::string("{\"name\":") + JsonString(c.name) +
            ",\"ok\":" + (c.ok ? "true" : "false") + ",\"detail\":" + JsonString(c.detail) + "}";
  }
  json += "],\"digest\":" + JsonString(first_digest) + ",\"paper\":[";
  for (size_t i = 0; i < first_main.paper.size(); ++i) {
    const PaperValue& p = first_main.paper[i];
    json += (i ? "," : "") + std::string("{\"name\":") + JsonString(p.name) +
            ",\"simulated\":" + JsonNum(p.simulated) + ",\"paper\":" + JsonNum(p.paper) + "}";
  }
  json += "],\"main_metrics\":" + JsonMetrics(first_main.metrics) +
          ",\"main_txns\":" + std::to_string(first_main.txns) +
          ",\"hold_depth\":" + std::to_string(peak_depth) + ",\"hold_ns\":" + JsonList(hold_ns) +
          ",\"shm_app_sections\":" + std::to_string(app_sections) +
          ",\"shm_replay_sections\":" + std::to_string(replay_sections) +
          ",\"shm_ns_per_section\":" + JsonList(shm_ns_per_section) + "}";
  std::printf("%s\n", json.c_str());
  return 0;
}
