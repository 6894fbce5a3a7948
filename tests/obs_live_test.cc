// Tests for the live observability service (src/obs/live): aggregator
// round-trips, the daemon's publish/pump/query cycle, Chrome-trace
// span export (golden + validity), and end-to-end smokes on the apps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/bookstore/bookstore.h"
#include "src/apps/minihttpd/minihttpd.h"
#include "src/apps/sedaserver/sedaserver.h"
#include "src/obs/live/aggregator.h"
#include "src/obs/live/attribution.h"
#include "src/obs/live/daemon.h"
#include "src/obs/live/span_export.h"
#include "src/obs/live/txn_event.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace whodunit::obs::live {
namespace {

// ---- Minimal JSON validity checker ----------------------------------
// Recursive-descent acceptor for the JSON grammar — enough to prove
// the exports are well-formed without a JSON library in the image.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Peek(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Peek(',')) return false;
    }
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      // JSON forbids raw control bytes inside a string.
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e2],"b":"x\"y","c":null,"d":true})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,)").Valid());
  EXPECT_FALSE(JsonChecker(R"([1,2,])").Valid());
  EXPECT_FALSE(JsonChecker("{} trailing").Valid());
  EXPECT_FALSE(JsonChecker("[\"a\tb\"]").Valid());
}

// ---- Aggregator ------------------------------------------------------

// Names intern through the thread-current symbol table — the same one
// default-constructed aggregators/daemons resolve against.
SymId S(std::string_view name) { return Syms().Intern(name); }

TxnEvent MakeEvent(uint64_t id, const std::string& type, int64_t start,
                   int64_t end, bool error = false) {
  TxnEvent ev;
  ev.txn_id = id;
  ev.type = S(type);
  ev.origin_stage = S("front");
  ev.start_ns = start;
  ev.end_ns = end;
  ev.error = error;
  ev.spans.push_back({S("front"), start, end - start, -1, 0});
  ev.spans.push_back({S("back"), start + 10, end - start - 10, 0, 7});
  return ev;
}

TEST(LiveAggregatorTest, IngestRoundTrip) {
  LiveAggregator agg;
  agg.Ingest(MakeEvent(1, "read", 0, sim::Millis(10)));
  agg.Ingest(MakeEvent(2, "read", 0, sim::Millis(30)));
  agg.Ingest(MakeEvent(3, "write", 0, sim::Millis(50), /*error=*/true));

  EXPECT_EQ(agg.txns(), 3u);
  EXPECT_EQ(agg.errors(), 1u);

  const auto types = agg.TypeRows();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0].type, "read");  // highest count first
  EXPECT_EQ(types[0].count, 2u);
  EXPECT_EQ(types[0].errors, 0u);
  EXPECT_NEAR(types[0].mean_ms, 20.0, 20.0 * 0.15);
  EXPECT_EQ(types[1].type, "write");
  EXPECT_EQ(types[1].errors, 1u);
  // Quantiles come from the mergeable histogram: within 15% of truth.
  EXPECT_NEAR(types[1].p99_ms, 50.0, 50.0 * 0.15);

  const auto stages = agg.StageRows();
  ASSERT_EQ(stages.size(), 2u);
  for (const auto& s : stages) {
    EXPECT_EQ(s.spans, 3u) << s.stage;
    EXPECT_GT(s.busy_ms, 0.0) << s.stage;
  }

  ASSERT_NE(agg.HistogramFor("read"), nullptr);
  EXPECT_EQ(agg.HistogramFor("read")->count(), 2u);
  EXPECT_EQ(agg.HistogramFor("nosuch"), nullptr);
}

TEST(LiveAggregatorTest, CostAndCrosstalk) {
  LiveAggregator agg;
  agg.AddCost(/*ctxt=*/5, 1000);
  agg.AddCost(/*ctxt=*/9, 3000);
  agg.AddCost(/*ctxt=*/5, 500);

  auto top = agg.TopContexts(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].ctxt, 9u);  // heaviest first
  EXPECT_EQ(top[0].cost_ns, 3000u);
  EXPECT_EQ(top[1].ctxt, 5u);
  EXPECT_EQ(top[1].cost_ns, 1500u);
  EXPECT_EQ(agg.TopContexts(1).size(), 1u);

  agg.NameTag(11, "OrderStatus");
  agg.IngestWait(/*waiter=*/11, /*holder=*/22, sim::Millis(4));
  agg.IngestWait(/*waiter=*/11, /*holder=*/22, sim::Millis(8));
  const auto pairs = agg.CrosstalkRows();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].waiter, "OrderStatus");
  EXPECT_EQ(pairs[0].holder, "tag_22");  // unnamed tag
  EXPECT_EQ(pairs[0].count, 2u);
  EXPECT_DOUBLE_EQ(pairs[0].mean_wait_ms, 6.0);
}

// Renders every aggregator view a query or export reads.
std::string RenderViews(const LiveAggregator& agg) {
  std::ostringstream out;
  out << agg.txns() << " txns, " << agg.errors() << " errors\n";
  for (const auto& r : agg.TypeRows()) {
    out << "type " << r.type << ' ' << r.count << ' ' << r.errors << ' ' << r.mean_ms << ' '
        << r.p50_ms << ' ' << r.p95_ms << ' ' << r.p99_ms << ' ' << r.p999_ms << '\n';
  }
  for (const auto& r : agg.StageRows()) {
    out << "stage " << r.stage << ' ' << r.spans << ' ' << r.busy_ms << '\n';
  }
  for (const auto& r : agg.CrosstalkRows()) {
    out << "pair " << r.waiter << ' ' << r.holder << ' ' << r.count << ' ' << r.mean_wait_ms
        << '\n';
  }
  for (const auto& r : agg.TopContexts(10)) {
    out << "ctxt " << r.ctxt << ' ' << r.cost_ns << '\n';
  }
  for (const auto& r : agg.AttrRows()) {
    out << "attr " << r.type << ' ' << r.stage << ' ' << r.ctxt << ' ' << WaitStateName(r.state)
        << ' ' << r.ns << '\n';
  }
  return out.str() + agg.ExportAttrFolded();
}

TEST(LiveAggregatorTest, MergeIsIdenticalAcrossMergeOrders) {
  // Two shards intern the same names in different orders (and one name
  // only one shard saw), so every merge remaps SymIds; folding A then B
  // and B then A must render byte-identical views.
  SymbolTable table_a, table_b, table_ab, table_ba;
  const auto shard = [](SymbolTable& table, const std::vector<std::string>& types,
                        int64_t scale) {
    ScopedSymbolTable scope(table);
    auto agg = std::make_unique<LiveAggregator>();
    uint64_t id = 1;
    for (const std::string& type : types) {
      TxnEvent ev = MakeEvent(id, type, 0, scale * static_cast<int64_t>(id) * sim::Millis(1),
                              /*error=*/id % 3 == 0);
      ev.root_ctxt = static_cast<context::NodeId>(id % 4);
      ev.attr = AttributeTxn(ev);
      agg->Ingest(ev);
      agg->AddCost(static_cast<context::NodeId>(id % 4), 100 * id);
      ++id;
    }
    agg->NameTag(1, "read");
    agg->NameTag(2, "write");
    agg->IngestWait(1, 2, sim::Millis(4 * scale));
    return agg;
  };
  const auto a = shard(table_a, {"write", "read", "read", "write", "read"}, 1);
  const auto b = shard(table_b, {"read", "audit", "write", "read"}, 2);

  const auto fold = [](SymbolTable& table, const LiveAggregator& first,
                       const LiveAggregator& second) {
    ScopedSymbolTable scope(table);
    LiveAggregator merged;
    merged.MergeFrom(first, {});
    merged.MergeFrom(second, {});
    return RenderViews(merged);
  };
  const std::string ab = fold(table_ab, *a, *b);
  const std::string ba = fold(table_ba, *b, *a);
  EXPECT_NE(ab.find("type audit"), std::string::npos) << ab;
  EXPECT_NE(ab.find("attr "), std::string::npos) << ab;
  EXPECT_EQ(ab, ba);
}

// ---- Daemon ----------------------------------------------------------

TEST(WhodunitdTest, PublishPumpQuery) {
  sim::Scheduler sched;
  {
    // publish_batch = 1: every completion crosses the channel alone,
    // so mid-run queries see the event as soon as the pump runs.
    LiveOptions options;
    options.publish_batch = 1;
    Whodunitd d(sched, options);

    const uint64_t txn = d.BeginTxn("front", "checkout", d.now());
    ASSERT_NE(txn, 0u);
    EXPECT_EQ(d.inflight(), 1u);
    d.NoteSend(txn, "front", /*link=*/42);
    sched.ScheduleAt(sim::Micros(10), [&] {
      d.JoinSpan(txn, "back", /*link=*/42, d.now());
    });
    sched.ScheduleAt(sim::Micros(30), [&] { d.EndSpan(txn, "back", d.now()); });
    sched.ScheduleAt(sim::Micros(40), [&] { d.CompleteTxn(txn, d.now(), {.ctxt = 17}); });
    sched.Run();  // pump drains the published event

    EXPECT_EQ(d.inflight(), 0u);
    EXPECT_EQ(d.aggregator().txns(), 1u);

    const auto events = d.RecentEvents();
    ASSERT_EQ(events.size(), 1u);
    const TxnEvent& ev = events[0];
    EXPECT_EQ(ev.type, S("checkout"));
    EXPECT_EQ(ev.origin_stage, S("front"));
    EXPECT_EQ(ev.root_ctxt, 17u);
    EXPECT_EQ(ev.end_ns, sim::Micros(40));
    ASSERT_EQ(ev.spans.size(), 2u);
    // The origin span stayed open until CompleteTxn closed it.
    EXPECT_EQ(ev.spans[0].stage, S("front"));
    EXPECT_EQ(ev.spans[0].duration_ns, sim::Micros(40));
    // The joined span linked to the origin via the noted send part.
    EXPECT_EQ(ev.spans[1].stage, S("back"));
    EXPECT_EQ(ev.spans[1].parent, 0);
    EXPECT_EQ(ev.spans[1].link, 42u);
    EXPECT_EQ(ev.spans[1].duration_ns, sim::Micros(20));

    const auto snap = d.Top();
    EXPECT_EQ(snap.txns, 1u);
    ASSERT_EQ(snap.types.size(), 1u);
    EXPECT_EQ(snap.types[0].type, "checkout");

    const std::string table = d.RenderTop(snap);
    EXPECT_NE(table.find("whodunitd"), std::string::npos);
    EXPECT_NE(table.find("checkout"), std::string::npos);

    const std::string json = d.QueryJson();
    EXPECT_TRUE(JsonChecker(json).Valid()) << json;
    EXPECT_NE(json.find("\"whodunit-live-v1\""), std::string::npos);

    EXPECT_TRUE(JsonChecker(d.ExportSpansJson()).Valid());

    // Drain the in-band close while the daemon (and its channel) is
    // still alive — same order the apps use.
    d.Shutdown();
    sched.Run();
  }
}

TEST(WhodunitdTest, InflightCapDropsAndShutdownAbandons) {
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.max_inflight = 2;
    Whodunitd d(sched, options);
    const uint64_t a = d.BeginTxn("s", "", 0);
    const uint64_t b = d.BeginTxn("s", "", 0);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_EQ(d.BeginTxn("s", "", 0), 0u);  // over the cap: dropped
    // Hooks on a dropped (0) txn are no-ops, not crashes.
    d.SetTxnType(0, "x");
    d.JoinSpan(0, "s", 0, 0);
    d.EndSpan(0, "s", 0);
    d.CompleteTxn(0, 0);
    EXPECT_EQ(d.inflight(), 2u);
    d.Shutdown();  // abandons a and b
    EXPECT_EQ(d.inflight(), 0u);
    EXPECT_EQ(d.BeginTxn("s", "", 0), 0u);  // after shutdown: dropped
    sched.Run();
  }
}

// The builder slab recycles a completed transaction's slot: the next
// transaction starts clean, the published events' txn ids stay
// sequential, hooks on a completed handle never reach the slot's new
// owner, the in-flight cap still counts live slots, and Shutdown
// counts what it abandons.
TEST(WhodunitdTest, BuilderSlotsRecycleCleanly) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.max_inflight = 2;
    options.publish_batch = 1;
    Whodunitd d(sched, options);
    const uint64_t a = d.BeginTxn("front", "first", 0);
    d.JoinSpan(a, "back", /*link=*/0, 5, /*queue_ns=*/3);
    d.CompleteTxn(a, 10, {.ctxt = 4, .error = true});
    const uint64_t b = d.BeginTxn("front", "", 20);  // reuses a's slot
    EXPECT_NE(b, 0u);
    EXPECT_NE(b, a);
    // Stale hooks on the completed id: no-ops, b is untouched.
    d.SetTxnType(a, "stale");
    d.JoinSpan(a, "back", /*link=*/0, 21);
    d.NoteSend(a, "front", /*link=*/9);
    d.EndSpan(a, "front", 22, {/*service_ns=*/100, /*lock_ns=*/100});
    d.CompleteTxn(a, 23, {.error = true});
    EXPECT_EQ(d.inflight(), 1u);
    const uint64_t c = d.BeginTxn("front", "third", 30);
    EXPECT_NE(c, 0u);
    EXPECT_NE(c, b);
    EXPECT_EQ(d.BeginTxn("front", "", 31), 0u);  // over the cap: dropped
    d.CompleteTxn(b, 40, {.stage = S("front"), .waits = {/*service_ns=*/7, /*lock_ns=*/3}});
    sched.Run();

    const auto events = d.RecentEvents();
    ASSERT_EQ(events.size(), 2u);
    const TxnEvent& first = events[0];
    EXPECT_EQ(first.txn_id, 1u);
    EXPECT_EQ(first.type, S("first"));
    EXPECT_TRUE(first.error);
    EXPECT_EQ(first.root_ctxt, 4u);
    ASSERT_EQ(first.spans.size(), 2u);
    EXPECT_EQ(first.spans[1].queue_ns, 3);
    const TxnEvent& second = events[1];
    EXPECT_EQ(second.txn_id, 2u);
    EXPECT_EQ(second.type, 0u);
    EXPECT_FALSE(second.error);
    EXPECT_EQ(second.root_ctxt, context::kEmptyContext);
    EXPECT_EQ(second.start_ns, 20);
    EXPECT_EQ(second.end_ns, 40);
    ASSERT_EQ(second.spans.size(), 1u);
    EXPECT_EQ(second.spans[0].duration_ns, 20);
    EXPECT_EQ(second.spans[0].service_ns, 7);
    EXPECT_EQ(second.spans[0].lock_ns, 3);

    d.Shutdown();  // abandons c
    d.CompleteTxn(c, 50);  // after shutdown: a no-op
    sched.Run();
    EXPECT_EQ(d.inflight(), 0u);
    EXPECT_EQ(reg.GetCounter("live.txns_begun").Value(), 3u);
    EXPECT_EQ(reg.GetCounter("live.txns_published").Value(), 2u);
    EXPECT_EQ(reg.GetCounter("live.txns_abandoned").Value(), 1u);
    EXPECT_EQ(reg.GetCounter("live.txns_dropped").Value(), 1u);
  }
}

// A handle names one slot owner. Hooks on a stale handle (its slot
// since reused), on handle 0 and on a slot that was never allocated
// all no-op and leave the slot's new owner untouched; the published
// events still number 1, 2, 3.
TEST(WhodunitdTest, StaleZeroAndOutOfRangeHandlesNoOp) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.max_inflight = 1;
    options.publish_batch = 1;
    Whodunitd d(sched, options);
    const uint64_t a = d.BeginTxn("front", "first", 0);
    d.CompleteTxn(a, 10);
    const uint64_t b = d.BeginTxn("front", "second", 20);  // a's slot, reused
    ASSERT_NE(b, 0u);
    const uint64_t out_of_range = (b & ~uint64_t{0xffffffff}) | 7;
    for (const uint64_t bad : {a, uint64_t{0}, out_of_range, b + 1}) {
      d.SetTxnType(bad, "stale");
      d.JoinSpan(bad, "back", /*link=*/0, 21, /*queue_ns=*/5, /*ctxt=*/9);
      d.NoteSend(bad, "front", /*link=*/9);
      d.EndSpan(bad, "front", 22, {/*service_ns=*/100, /*lock_ns=*/100});
      d.CompleteTxn(bad, 23, {.ctxt = 9, .error = true});
    }
    EXPECT_EQ(d.inflight(), 1u);
    d.CompleteTxn(b, 40);
    const uint64_t c = d.BeginTxn("front", "third", 50);
    d.CompleteTxn(c, 60);
    d.CompleteTxn(b, 61);  // b is stale now too
    sched.Run();

    const auto events = d.RecentEvents();
    ASSERT_EQ(events.size(), 3u);
    for (size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].txn_id, i + 1);
      EXPECT_FALSE(events[i].error);
      EXPECT_EQ(events[i].root_ctxt, context::kEmptyContext);
      ASSERT_EQ(events[i].spans.size(), 1u);
      EXPECT_EQ(events[i].spans[0].service_ns, 0);
      EXPECT_EQ(events[i].spans[0].lock_ns, 0);
    }
    EXPECT_EQ(events[1].type, S("second"));
    EXPECT_EQ(events[1].start_ns, 20);
    EXPECT_EQ(events[1].end_ns, 40);
    EXPECT_EQ(events[1].spans[0].duration_ns, 20);
    EXPECT_EQ(events[2].type, S("third"));
    EXPECT_EQ(reg.GetCounter("live.txns_published").Value(), 3u);
    d.Shutdown();
    sched.Run();
  }
}

// Every field of the span ring's events, one line per event and span.
std::string RenderEvents(const std::vector<TxnEvent>& events) {
  std::ostringstream out;
  for (const TxnEvent& ev : events) {
    out << "txn " << ev.txn_id << ' ' << Syms().Name(ev.type) << ' '
        << Syms().Name(ev.origin_stage) << ' ' << ev.root_ctxt << ' ' << ev.start_ns << ' '
        << ev.end_ns << ' ' << ev.error << '\n';
    for (const StageSpan& span : ev.spans) {
      out << " span " << Syms().Name(span.stage) << ' ' << span.start_ns << ' '
          << span.duration_ns << ' ' << span.parent << ' ' << span.link << ' '
          << span.queue_ns << ' ' << span.service_ns << ' ' << span.lock_ns << ' '
          << span.ctxt << '\n';
    }
    for (const AttrSlice& slice : ev.attr) {
      out << " attr " << Syms().Name(slice.stage) << ' ' << slice.ctxt << ' '
          << WaitStateName(slice.state) << ' ' << slice.ns << '\n';
    }
  }
  return out.str();
}

// What the span ring and the history show for one (history budget,
// ring size): a daemon fed 300 transactions of one to three spans,
// some erroring, queried mid-run (a partial batch and one transaction
// still open) and again after Shutdown.
std::string SpanRingTranscript(size_t history_bytes, size_t span_ring) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  sim::Scheduler sched;
  std::string out;
  {
    LiveOptions options;
    options.history_bytes = history_bytes;
    options.history_flush_interval_ns = sim::Millis(40);
    options.span_ring = span_ring;
    options.publish_batch = 8;
    Whodunitd d(sched, options);
    for (int i = 0; i < 300; ++i) {
      const int64_t t = sim::Millis(i);
      sched.RunUntil(t);
      const uint64_t txn = d.BeginTxn("front", i % 3 == 0 ? "checkout" : "browse", t);
      if (i % 4 != 0) {
        const auto link = static_cast<uint32_t>(i % 7 + 1);
        d.NoteSend(txn, "front", link);
        d.JoinSpan(txn, "app", link, t + 100, /*queue_ns=*/30 + i % 5,
                   static_cast<context::NodeId>(i % 3 + 1));
        if (i % 3 == 1) {
          d.NoteSend(txn, "app", link + 10);
          d.JoinSpan(txn, "db", link + 10, t + 200, /*queue_ns=*/20);
          d.EndSpan(txn, "db", t + 400 + i % 9 * 10, {/*service_ns=*/50, /*lock_ns=*/i % 4 * 20});
        }
        d.EndSpan(txn, "app", t + 600, {/*service_ns=*/200, /*lock_ns=*/0});
      }
      d.CompleteTxn(txn, t + 900 + i % 11 * 50,
                    {.ctxt = static_cast<context::NodeId>(i % 4 + 1), .error = i % 13 == 0,
                     .stage = S("front"), .waits = {/*service_ns=*/100}});
    }
    d.BeginTxn("front", "browse", sim::Millis(300));  // still open at Shutdown
    sched.RunUntil(sim::Millis(301));
    out += "mid\n" + RenderEvents(d.RecentEvents()) + d.ExportSpansJson() +
           d.ExportHistoryJson() + d.RenderWhyTail();
    d.Shutdown();
    sched.Run();
    out += "end\n" + RenderEvents(d.RecentEvents()) + d.ExportSpansJson() +
           d.ExportHistoryJson() + d.RenderWhyTail();
  }
  return out;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

// RecentEvents(), ExportSpansJson(), the history JSON and the
// why-tail report are byte-identical to the transcripts a daemon with
// a separate recent-event ring produced, whatever the history budget
// (1 MiB, disabled, below one record, or a few dozen records) and
// ring size. Digests and
// lengths were recorded from that daemon.
TEST(WhodunitdTest, SpanRingGoldenAcrossHistoryBudgets) {
  struct Golden {
    size_t history_bytes;
    size_t span_ring;
    uint64_t digest;
    size_t length;
  };
  const Golden goldens[] = {
      {1 << 20, 0, 0x2da2be9a08c5b9a1ull, 157486},
      {1 << 20, 3, 0x41fdb5e8e80cb157ull, 163370},
      {1 << 20, 128, 0x3d3baebc20f67101ull, 352751},
      {0, 0, 0xe5e93f2baca4c912ull, 638},
      {0, 3, 0x2e496a42e5a1b36cull, 6522},
      {0, 128, 0x6c78c5c26f523ac0ull, 195903},
      {1, 0, 0x91840c5dd3113b03ull, 652},
      {1, 3, 0xe50395f27e3357a1ull, 6536},
      {1, 128, 0xd7b60d3334289bdbull, 195917},
      {20000, 0, 0x51d2da8939c4cfabull, 17766},
      {20000, 3, 0x1ae16d8b71a825b3ull, 23650},
      {20000, 128, 0x5010f913add11111ull, 213031},
  };
  for (const Golden& g : goldens) {
    const std::string transcript = SpanRingTranscript(g.history_bytes, g.span_ring);
    EXPECT_EQ(Fnv1a(transcript), g.digest)
        << "history_bytes " << g.history_bytes << " span_ring " << g.span_ring
        << ": got {" << g.history_bytes << ", " << g.span_ring << ", 0x" << std::hex
        << Fnv1a(transcript) << std::dec << "ull, " << transcript.size() << "}";
    EXPECT_EQ(transcript.size(), g.length);
  }
  // A ring of 3 shows the three newest events of the stream, the
  // budget notwithstanding.
  const std::string small = SpanRingTranscript(/*history_bytes=*/1, /*span_ring=*/3);
  EXPECT_NE(small.find("txn 300 "), std::string::npos);
  EXPECT_EQ(small.find("txn 297 "), std::string::npos);
}

TEST(WhodunitdTest, SpanRingKeepsNewest) {
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.span_ring = 3;
    options.publish_batch = 1;
    Whodunitd d(sched, options);
    for (int i = 0; i < 5; ++i) {
      const uint64_t txn = d.BeginTxn("s", "t" + std::to_string(i), d.now());
      d.CompleteTxn(txn, d.now());
    }
    sched.Run();
    const auto events = d.RecentEvents();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events.front().type, S("t2"));  // oldest retained
    EXPECT_EQ(events.back().type, S("t4"));   // newest last
    EXPECT_EQ(d.aggregator().txns(), 5u);  // ring does not limit aggregation
    d.Shutdown();
    sched.Run();
  }
}

// The lifecycle counters must reconcile: every transaction that began
// is either published or abandoned once the daemon shuts down (dropped
// transactions never count as begun), and the aggregator-side ingest
// counter matches the publish count after the pump drains. See
// docs/METRICS.md "Live pipeline counters" for the exact semantics.
TEST(WhodunitdTest, LifecycleCountersReconcileAtShutdown) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.max_inflight = 2;
    options.publish_batch = 2;
    Whodunitd d(sched, options);
    const uint64_t a = d.BeginTxn("s", "", 0);
    const uint64_t b = d.BeginTxn("s", "", 0);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_EQ(d.BeginTxn("s", "", 0), 0u);  // over the cap: dropped, not begun
    d.CompleteTxn(a, 10);
    // Mid-run: begun == published + abandoned + in-flight.
    EXPECT_EQ(reg.GetCounter("live.txns_begun").Value(),
              reg.GetCounter("live.txns_published").Value() +
                  reg.GetCounter("live.txns_abandoned").Value() + d.inflight());
    d.Shutdown();  // abandons b, flushes the partial batch
    sched.Run();
    EXPECT_EQ(reg.GetCounter("live.txns_begun").Value(), 2u);
    EXPECT_EQ(reg.GetCounter("live.txns_published").Value(), 1u);
    EXPECT_EQ(reg.GetCounter("live.txns_abandoned").Value(), 1u);
    EXPECT_EQ(reg.GetCounter("live.txns_dropped").Value(), 1u);
    EXPECT_EQ(d.inflight(), 0u);
    EXPECT_EQ(reg.GetCounter("live.txns_begun").Value(),
              reg.GetCounter("live.txns_published").Value() +
                  reg.GetCounter("live.txns_abandoned").Value());
    // Aggregator-side: one ingested txn (== published), and its spans.
    EXPECT_EQ(reg.GetCounter("live.txns_ingested").Value(),
              reg.GetCounter("live.txns_published").Value());
    EXPECT_EQ(reg.GetCounter("live.spans_ingested").Value(), 1u);
    EXPECT_EQ(reg.GetCounter("live.batches_published").Value(), 1u);
  }
}

// ---- Span export -----------------------------------------------------

TEST(SpanExportTest, GoldenChromeTrace) {
  TxnEvent ev;
  ev.txn_id = 7;
  ev.type = S("checkout");
  ev.origin_stage = S("frontend");
  ev.root_ctxt = 3;
  ev.start_ns = 1000;
  ev.end_ns = 5000;
  ev.spans.push_back({S("frontend"), 1000, 4000, -1, 0});
  ev.spans.push_back({S("db"), 2000, 1500, 0, 42});

  // Byte-exact golden: the export is deterministic (fixed three-decimal
  // microsecond timestamps, tracks numbered by first appearance).
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"db\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"frontend\"}},\n"
      "{\"name\":\"checkout\",\"cat\":\"txn\",\"ph\":\"X\",\"cname\":\"grey\",\"pid\":1,"
      "\"tid\":0,\"ts\":1.000,"
      "\"dur\":4.000,\"args\":{\"txn\":7,\"stage\":\"frontend\",\"ctxt\":3}},\n"
      "{\"name\":\"checkout\",\"cat\":\"txn\",\"ph\":\"X\",\"cname\":\"grey\",\"pid\":1,"
      "\"tid\":1,\"ts\":2.000,"
      "\"dur\":1.500,\"args\":{\"txn\":7,\"stage\":\"db\",\"ctxt\":3}},\n"
      "{\"name\":\"synopsis_42\",\"cat\":\"flow\",\"ph\":\"s\",\"pid\":1,\"tid\":0,"
      "\"ts\":2.000,\"id\":1},\n"
      "{\"name\":\"synopsis_42\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,"
      "\"tid\":1,\"ts\":2.000,\"id\":1}\n"
      "]}\n";
  EXPECT_EQ(ExportChromeTrace({ev}), expected);
  EXPECT_TRUE(JsonChecker(expected).Valid());
}

// Spans with wait-state measurements are color-coded by dominant
// component: lock wait red ("terrible"), queue wait light green
// ("thread_state_runnable"), service dark green
// ("thread_state_running"); unmeasured spans stay grey.
TEST(SpanExportTest, ColorCodesSpansByDominantWaitState) {
  TxnEvent ev;
  ev.txn_id = 9;
  ev.type = S("checkout");
  ev.start_ns = 0;
  ev.end_ns = 10000;
  // {stage, start, dur, parent, link, queue, service, lock, ctxt}
  ev.spans.push_back({S("proxy"), 0, 10000, -1, 0, 0, 4000, 0, 0});      // service-heavy
  ev.spans.push_back({S("httpd"), 1000, 8000, 0, 1, 5000, 2000, 0, 0});  // queue-heavy
  ev.spans.push_back({S("db"), 2000, 6000, 1, 2, 100, 200, 4000, 0});    // lock-heavy
  ev.spans.push_back({S("cache"), 3000, 1000, 2, 3});                    // unmeasured

  const std::string out = ExportChromeTrace({ev});
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
  EXPECT_NE(out.find("\"cname\":\"thread_state_running\",\"pid\":1,\"tid\":0"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"cname\":\"thread_state_runnable\",\"pid\":1,\"tid\":1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"cname\":\"terrible\",\"pid\":1,\"tid\":2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"cname\":\"grey\",\"pid\":1,\"tid\":3"), std::string::npos) << out;
}

TEST(SpanExportTest, EmptyAndEscaping) {
  EXPECT_TRUE(JsonChecker(ExportChromeTrace({})).Valid());

  TxnEvent ev;
  ev.txn_id = 1;
  ev.type = S("quo\"te\\slash");
  ev.spans.push_back({S("sta\"ge"), 0, 10, -1, 0});
  const std::string out = ExportChromeTrace({ev});
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
}

// Names reach the daemon unfiltered through the string_view hooks, so
// every export must escape control bytes, not pass them through raw.
TEST(WhodunitdTest, ExportsEscapeControlBytesInNames) {
  sim::Scheduler sched;
  {
    LiveOptions options;
    options.publish_batch = 1;
    Whodunitd d(sched, options);
    const uint64_t txn = d.BeginTxn("st\tage", "a\tb\nc\x01", d.now());
    sched.ScheduleAt(sim::Micros(10), [&] { d.CompleteTxn(txn, d.now()); });
    sched.Run();
    d.Shutdown();
    sched.Run();

    for (const std::string& json : {d.QueryJson(), d.ExportSpansJson(), d.ExportHistoryJson()}) {
      EXPECT_TRUE(JsonChecker(json).Valid()) << json;
      EXPECT_NE(json.find("\"a\\tb\\nc\\u0001\""), std::string::npos) << json;
      EXPECT_NE(json.find("\"st\\tage\""), std::string::npos) << json;
      // Layout newlines are the only raw bytes below 0x20 allowed.
      EXPECT_EQ(std::count_if(json.begin(), json.end(),
                              [](char c) { return c != '\n' && static_cast<unsigned char>(c) < 0x20; }),
                0)
          << json;
    }
  }
}

// ---- End-to-end smokes -----------------------------------------------

TEST(LiveEndToEndTest, BookstorePublishesLiveProfile) {
  apps::BookstoreOptions options;
  options.clients = 20;
  options.duration = sim::Seconds(40);
  options.warmup = sim::Seconds(5);
  options.live = true;
  options.live_span_ring = 16;
  const auto result = apps::RunBookstore(options);

  EXPECT_NE(result.live_top_text.find("whodunitd"), std::string::npos);
  // At least one TPC-W interaction type made it into the table.
  EXPECT_NE(result.live_top_text.find("Home"), std::string::npos);
  EXPECT_TRUE(JsonChecker(result.live_query_json).Valid());
  EXPECT_NE(result.live_query_json.find("\"whodunit-live-v1\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(result.live_span_json).Valid());
  // Spans flowed through all three stages and were linked into traces.
  EXPECT_NE(result.live_span_json.find("\"squid\""), std::string::npos);
  EXPECT_NE(result.live_span_json.find("\"mysql\""), std::string::npos);
  EXPECT_NE(result.live_span_json.find("synopsis_"), std::string::npos);
  // The live path must not disturb the measured run.
  EXPECT_GT(result.interactions, 0u);
}

TEST(LiveEndToEndTest, BookstoreWhyTailBlamesDbLockWait) {
  // The acceptance scenario for the attribution work: on a contended
  // bookstore, the p99-vs-p50 differential must attribute the tail
  // gap to lock waiting on the DB stage — the writes serialize on
  // row locks, so tail transactions spend their extra time in
  // mysql/lock_wait, not in more service.
  apps::BookstoreOptions options;
  options.clients = 50;
  options.duration = sim::Seconds(120);
  options.warmup = sim::Seconds(10);
  options.live = true;
  const auto result = apps::RunBookstore(options);

  ASSERT_FALSE(result.live_why_tail_text.empty());
  ASSERT_FALSE(result.live_attr_folded.empty());
  EXPECT_NE(result.live_why_tail_text.find("why-tail: p99 vs p50"),
            std::string::npos);
  // The folded whodunit-attr-v1 export carries DB lock-wait frames.
  EXPECT_NE(result.live_attr_folded.find(";mysql;lock_wait "),
            std::string::npos)
      << result.live_attr_folded;

  // Per type the delta rows are sorted largest-gap-first: for at least
  // one transaction type the dominant tail contributor must be
  // mysql/lock_wait (the row right after the STAGE/STATE header).
  bool lock_wait_dominates = false;
  std::istringstream lines(result.live_why_tail_text);
  std::string line;
  bool next_is_top_row = false;
  while (std::getline(lines, line)) {
    if (next_is_top_row) {
      next_is_top_row = false;
      if (line.find("mysql") != std::string::npos &&
          line.find("lock_wait") != std::string::npos) {
        lock_wait_dominates = true;
        break;
      }
    }
    if (line.find("STAGE") != std::string::npos &&
        line.find("STATE") != std::string::npos) {
      next_is_top_row = true;
    }
  }
  EXPECT_TRUE(lock_wait_dominates) << result.live_why_tail_text;
}

// The sampling line reports this daemon's transactions, not the
// process-lifetime sampling.* counters: a second identical run in the
// same process (same global registry) must render the same table.
TEST(LiveEndToEndTest, RepeatedRunInOneProcessReportsItsOwnSampling) {
  auto run = [] {
    apps::BookstoreOptions options;
    options.clients = 10;
    options.duration = sim::Seconds(20);
    options.warmup = sim::Seconds(2);
    options.live = true;
    options.live_span_ring = 16;
    return apps::RunBookstore(options);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_NE(first.live_top_text.find("txns sampled"), std::string::npos) << first.live_top_text;
  EXPECT_EQ(first.live_top_text, second.live_top_text);
  EXPECT_EQ(first.live_query_json, second.live_query_json);
}

// Batching determinism (docs/OBSERVABILITY.md "Batching and
// determinism"): the publish batch preserves completion order and the
// channel is FIFO, so every end-of-run export must be byte-identical
// for any --publish-batch value. Each run executes under a fresh
// ShardEnv so context NodeIds, metrics, and SymIds restart from the
// same seeds.
TEST(LiveEndToEndTest, ExportsAreInvariantUnderPublishBatchSize) {
  auto run = [](size_t batch) {
    sim::ShardEnv env;
    sim::ShardEnv::Scope scope(env);
    apps::BookstoreOptions options;
    options.clients = 10;
    options.duration = sim::Seconds(20);
    options.warmup = sim::Seconds(2);
    options.live = true;
    options.live_span_ring = 16;
    options.live_publish_batch = batch;
    return apps::RunBookstore(options);
  };
  const auto unbatched = run(1);
  const auto batched = run(64);
  const auto coarse = run(1024);
  ASSERT_FALSE(unbatched.live_query_json.empty());
  EXPECT_EQ(unbatched.live_query_json, batched.live_query_json);
  EXPECT_EQ(unbatched.live_query_json, coarse.live_query_json);
  EXPECT_EQ(unbatched.live_top_text, batched.live_top_text);
  EXPECT_EQ(unbatched.live_top_text, coarse.live_top_text);
  EXPECT_EQ(unbatched.live_span_json, batched.live_span_json);
  EXPECT_EQ(unbatched.live_span_json, coarse.live_span_json);
  EXPECT_EQ(unbatched.live_attr_folded, batched.live_attr_folded);
  EXPECT_EQ(unbatched.live_attr_folded, coarse.live_attr_folded);
  EXPECT_EQ(unbatched.live_why_tail_text, batched.live_why_tail_text);
  EXPECT_EQ(unbatched.live_why_tail_text, coarse.live_why_tail_text);
}

// The merged sharded exports must also be invariant across worker
// thread counts and batch sizes together (the acceptance matrix).
TEST(LiveEndToEndTest, ShardedExportsInvariantAcrossThreadsAndBatch) {
  auto run = [](int threads, size_t batch) {
    apps::BookstoreOptions options;
    options.clients = 12;
    options.duration = sim::Seconds(20);
    options.warmup = sim::Seconds(2);
    options.live = true;
    options.live_span_ring = 16;
    options.live_publish_batch = batch;
    options.shards = 4;
    options.threads = threads;
    return apps::RunBookstore(options);
  };
  const auto serial = run(1, 1);
  const auto threaded = run(4, 64);
  const auto wide = run(8, 1024);
  ASSERT_FALSE(serial.live_query_json.empty());
  EXPECT_EQ(serial.live_query_json, threaded.live_query_json);
  EXPECT_EQ(serial.live_query_json, wide.live_query_json);
  EXPECT_EQ(serial.live_attr_folded, threaded.live_attr_folded);
  EXPECT_EQ(serial.live_attr_folded, wide.live_attr_folded);
  EXPECT_EQ(serial.live_top_text, threaded.live_top_text);
  EXPECT_EQ(serial.live_top_text, wide.live_top_text);
  EXPECT_EQ(serial.db_profile_text, threaded.db_profile_text);
  EXPECT_EQ(serial.db_profile_text, wide.db_profile_text);
}

TEST(LiveEndToEndTest, MinihttpdTracksConnections) {
  apps::MinihttpdOptions options;
  options.workers = 4;
  options.clients = 16;
  options.duration = sim::Seconds(5);
  options.live = true;
  const auto result = apps::RunMinihttpd(options);

  EXPECT_NE(result.live_top_text.find("whodunitd"), std::string::npos);
  // Connections are typed by response size at accept.
  const bool typed =
      result.live_top_text.find("conn_small") != std::string::npos ||
      result.live_top_text.find("conn_large") != std::string::npos;
  EXPECT_TRUE(typed) << result.live_top_text;
  EXPECT_TRUE(JsonChecker(result.live_span_json).Valid());
  EXPECT_GT(result.connections, 0u);
}

TEST(LiveEndToEndTest, SedaServerRetypesByCacheOutcome) {
  apps::SedaServerOptions options;
  options.clients = 16;
  options.duration = sim::Seconds(5);
  options.live = true;
  const auto result = apps::RunSedaServer(options);

  EXPECT_NE(result.live_top_text.find("whodunitd"), std::string::npos);
  // CacheStage re-labels each transaction with its real outcome.
  EXPECT_NE(result.live_top_text.find("cache_hit"), std::string::npos);
  EXPECT_NE(result.live_top_text.find("cache_miss"), std::string::npos);
  EXPECT_TRUE(JsonChecker(result.live_span_json).Valid());
  // One track per SEDA stage in the trace.
  EXPECT_NE(result.live_span_json.find("\"WriteStage\""), std::string::npos);
  EXPECT_NE(result.live_span_json.find("\"FileIoStage\""), std::string::npos);
  EXPECT_GT(result.requests, 0u);
}

}  // namespace
}  // namespace whodunit::obs::live
