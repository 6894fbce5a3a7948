// Critical-path wait-state attribution (src/obs/live/attribution.cc,
// docs/OBSERVABILITY.md): golden decomposition of a hand-built 3-tier
// DAG, the exact-sum invariant, overlap/orphan edge cases, and the
// aggregator's attribution fold (MergeFrom ctxt remapping, folded
// export).
#include "src/obs/live/attribution.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/live/aggregator.h"
#include "src/obs/live/daemon.h"
#include "src/sim/scheduler.h"

namespace whodunit::obs::live {
namespace {

// Events are built with interned SymIds; tests intern through the
// thread-current table, the same one the one-shot AttributeTxn and
// default-constructed daemons resolve against.
SymId S(std::string_view name) { return Syms().Intern(name); }

int64_t SliceSum(const AttrVec& slices) {
  int64_t sum = 0;
  for (const AttrSlice& s : slices) {
    sum += s.ns;
  }
  return sum;
}

// {stage, start, dur, parent, link, queue, service, lock}
TxnEvent ThreeTierEvent() {
  TxnEvent ev;
  ev.txn_id = 1;
  ev.type = S("checkout");
  ev.start_ns = 0;
  ev.end_ns = 10000;
  ev.spans.push_back({S("proxy"), 0, 10000, -1, 0, 0, 2000, 0});
  ev.spans.push_back({S("httpd"), 1500, 7000, 0, 1, 500, 1500, 0});
  ev.spans.push_back({S("db"), 3000, 4000, 1, 2, 200, 1000, 1800});
  return ev;
}

TEST(AttributionTest, GoldenThreeTierDecomposition) {
  // proxy [0,10000) -> httpd [1500,8500) -> db [3000,7000), with
  // measured queue/service/lock per span. Every interval classifies:
  //   proxy: 1000+1000 service burned around the child, 500 tail
  //     sched_other; the 500 gap before httpd is httpd's queue wait.
  //   httpd: 1300+200 service, 1300 sched_other; db's 200 queue wait.
  //   db: 1000 service, 1800 lock wait, 1200 sched_other (disk etc).
  const auto slices = AttributeTxn(ThreeTierEvent());

  // Byte-exact: ordered by (stage, ctxt, state) with the enum order
  // queue_wait < service < lock_wait < downstream_wait < sched_other.
  const std::vector<AttrSlice> expected = {
      {S("db"), 0, WaitState::kQueueWait, 200},
      {S("db"), 0, WaitState::kService, 1000},
      {S("db"), 0, WaitState::kLockWait, 1800},
      {S("db"), 0, WaitState::kSchedOther, 1200},
      {S("httpd"), 0, WaitState::kQueueWait, 500},
      {S("httpd"), 0, WaitState::kService, 1500},
      {S("httpd"), 0, WaitState::kSchedOther, 1300},
      {S("proxy"), 0, WaitState::kService, 2000},
      {S("proxy"), 0, WaitState::kSchedOther, 500},
  };
  ASSERT_EQ(slices.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(slices[i].stage, expected[i].stage) << "slice " << i;
    EXPECT_EQ(slices[i].ctxt, expected[i].ctxt) << "slice " << i;
    EXPECT_EQ(slices[i].state, expected[i].state) << "slice " << i;
    EXPECT_EQ(slices[i].ns, expected[i].ns) << "slice " << i;
  }
  EXPECT_EQ(SliceSum(slices), 10000);
}

TEST(AttributionTest, SlicesSumToEndToEndExactly) {
  // The acceptance invariant: for any span DAG the slices sum to
  // end_ns - start_ns, with no nanosecond gained or lost.
  std::vector<TxnEvent> events;
  events.push_back(ThreeTierEvent());

  // Span durations that overrun the transaction window.
  TxnEvent overrun = ThreeTierEvent();
  overrun.spans[2].duration_ns = 50000;
  events.push_back(overrun);

  // Measured components larger than the time available to classify.
  TxnEvent overmeasured = ThreeTierEvent();
  overmeasured.spans[0].service_ns = 1 << 30;
  overmeasured.spans[1].queue_ns = 1 << 30;
  overmeasured.spans[2].lock_ns = 1 << 30;
  events.push_back(overmeasured);

  // Single-span transaction with no measurements at all.
  TxnEvent bare;
  bare.start_ns = 5;
  bare.end_ns = 777;
  bare.spans.push_back({S("solo"), 5, 772, -1, 0});
  events.push_back(bare);

  for (size_t i = 0; i < events.size(); ++i) {
    const auto slices = AttributeTxn(events[i]);
    EXPECT_EQ(SliceSum(slices), events[i].end_ns - events[i].start_ns)
        << "event " << i;
  }
}

TEST(AttributionTest, OverlappingDownstreamWaitsSplitOnce) {
  // Two children of the proxy with overlapping windows: the overlap is
  // owned by the earlier child's subtree; the later child only gets
  // the non-overlapped remainder, so nothing is double-counted.
  TxnEvent ev;
  ev.start_ns = 0;
  ev.end_ns = 10000;
  ev.spans.push_back({S("proxy"), 0, 10000, -1, 0});
  ev.spans.push_back({S("httpd"), 1000, 5000, 0, 1});  // [1000, 6000)
  ev.spans.push_back({S("db"), 2000, 7000, 0, 2});     // [2000, 9000) overlaps
  const auto slices = AttributeTxn(ev);

  const std::vector<AttrSlice> expected = {
      {S("db"), 0, WaitState::kSchedOther, 3000},     // [6000, 9000) only
      {S("httpd"), 0, WaitState::kSchedOther, 5000},  // [1000, 6000)
      {S("proxy"), 0, WaitState::kDownstreamWait, 1000},  // gap before httpd
      {S("proxy"), 0, WaitState::kSchedOther, 1000},      // [9000, 10000)
  };
  ASSERT_EQ(slices.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(slices[i].stage, expected[i].stage) << "slice " << i;
    EXPECT_EQ(slices[i].state, expected[i].state) << "slice " << i;
    EXPECT_EQ(slices[i].ns, expected[i].ns) << "slice " << i;
  }
  EXPECT_EQ(SliceSum(slices), 10000);
}

TEST(AttributionTest, SiblingsWalkInStartOrderNotJoinOrder) {
  // "b" joined after "a" but started first: the walk must hand the
  // earlier window to "b" (index order would starve it of any time).
  TxnEvent ev;
  ev.start_ns = 0;
  ev.end_ns = 10000;
  ev.spans.push_back({S("proxy"), 0, 10000, -1, 0});
  ev.spans.push_back({S("a"), 5000, 2000, 0, 1});  // [5000, 7000)
  ev.spans.push_back({S("b"), 1000, 2000, 0, 2});  // [1000, 3000)
  const auto slices = AttributeTxn(ev);

  const std::vector<AttrSlice> expected = {
      {S("a"), 0, WaitState::kSchedOther, 2000},
      {S("b"), 0, WaitState::kSchedOther, 2000},
      {S("proxy"), 0, WaitState::kDownstreamWait, 3000},  // [0, 1000) + [3000, 5000)
      {S("proxy"), 0, WaitState::kSchedOther, 3000},      // [7000, 10000)
  };
  ASSERT_EQ(slices.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(slices[i].stage, expected[i].stage) << "slice " << i;
    EXPECT_EQ(slices[i].state, expected[i].state) << "slice " << i;
    EXPECT_EQ(slices[i].ns, expected[i].ns) << "slice " << i;
  }
}

TEST(AttributionTest, OrphanSpansGraftOntoOrigin) {
  // A span whose recorded parent is invalid (negative, or not an
  // earlier index) grafts onto the origin: its time is still
  // attributed rather than dropped.
  TxnEvent ev;
  ev.start_ns = 0;
  ev.end_ns = 1000;
  ev.spans.push_back({S("origin"), 0, 1000, -1, 0});
  ev.spans.push_back({S("orphan"), 200, 300, 7, 0});  // parent 7 does not precede
  const auto slices = AttributeTxn(ev);
  EXPECT_EQ(SliceSum(slices), 1000);
  bool saw_orphan = false;
  for (const AttrSlice& s : slices) {
    saw_orphan = saw_orphan || s.stage == S("orphan");
  }
  EXPECT_TRUE(saw_orphan);
}

TEST(AttributionTest, SliceCtxtFallsBackToRootCtxt) {
  TxnEvent ev = ThreeTierEvent();
  ev.root_ctxt = 42;
  ev.spans[2].ctxt = 9;  // the db span ran under its own context
  const auto slices = AttributeTxn(ev);
  for (const AttrSlice& s : slices) {
    EXPECT_EQ(s.ctxt, s.stage == S("db") ? 9u : 42u)
        << Syms().Name(s.stage) << "/" << WaitStateName(s.state);
  }
  EXPECT_EQ(SliceSum(slices), 10000);
}

TEST(AttributionTest, EmptyAndDegenerateEventsYieldNothing) {
  TxnEvent ev;
  EXPECT_TRUE(AttributeTxn(ev).empty());
  ev.start_ns = 100;
  ev.end_ns = 100;  // zero-width window
  ev.spans.push_back({S("s"), 100, 0, -1, 0});
  EXPECT_TRUE(AttributeTxn(ev).empty());
}

// ---- Name-rank cache -------------------------------------------------

// Same event, spans in three tiers with every wait state present.
// {stage, start, dur, parent, link, queue, service, lock}
TxnEvent TieredEvent(SymbolTable& syms, std::string_view origin, std::string_view mid,
                     std::string_view leaf) {
  TxnEvent ev;
  ev.type = syms.Intern("checkout");
  ev.end_ns = 10000;
  ev.spans.push_back({syms.Intern(origin), 0, 10000, -1, 0, 0, 2000, 0});
  ev.spans.push_back({syms.Intern(mid), 1500, 7000, 0, 1, 500, 1500, 0});
  ev.spans.push_back({syms.Intern(leaf), 3000, 4000, 1, 2, 200, 1000, 1800});
  return ev;
}

void ExpectSameSlices(const AttrVec& got, const AttrVec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].stage, want[i].stage) << "slice " << i;
    EXPECT_EQ(got[i].ctxt, want[i].ctxt) << "slice " << i;
    EXPECT_EQ(got[i].state, want[i].state) << "slice " << i;
    EXPECT_EQ(got[i].ns, want[i].ns) << "slice " << i;
  }
}

TEST(AttributionTest, RankCacheFollowsStagesInternedLater) {
  // A long-lived scratch ranks the table's names once; a stage interned
  // after that — whose name sorts before every existing one — must
  // re-rank, so a warm scratch and a fresh one agree slice for slice
  // and the aggregated views match.
  SymbolTable table;
  ScopedSymbolTable scope(table);
  LiveAggregator warm_agg, fresh_agg;
  AttrScratch warm;

  TxnEvent first = TieredEvent(table, "squid", "tomcat", "mysql");
  AttrVec fresh_first = AttributeTxn(first);
  AttributeTxn(first, table, warm, first.attr);
  ExpectSameSlices(first.attr, fresh_first);
  warm_agg.Ingest(first);
  first.attr = fresh_first;
  fresh_agg.Ingest(first);

  TxnEvent second = TieredEvent(table, "squid", "apache", "mysql");  // "apache" is new
  AttrVec fresh_second = AttributeTxn(second);
  AttributeTxn(second, table, warm, second.attr);
  ExpectSameSlices(second.attr, fresh_second);
  ASSERT_FALSE(second.attr.empty());
  EXPECT_EQ(second.attr[0].stage, table.Intern("apache"));  // sorts first
  warm_agg.Ingest(second);
  second.attr = fresh_second;
  fresh_agg.Ingest(second);

  EXPECT_EQ(warm_agg.ExportAttrFolded(), fresh_agg.ExportAttrFolded());
  const auto warm_rows = warm_agg.AttrRows();
  const auto fresh_rows = fresh_agg.AttrRows();
  ASSERT_EQ(warm_rows.size(), fresh_rows.size());
  for (size_t i = 0; i < warm_rows.size(); ++i) {
    EXPECT_EQ(warm_rows[i].stage, fresh_rows[i].stage) << "row " << i;
    EXPECT_EQ(warm_rows[i].state, fresh_rows[i].state) << "row " << i;
    EXPECT_EQ(warm_rows[i].ns, fresh_rows[i].ns) << "row " << i;
  }
}

TEST(AttributionTest, ReverseAlphabeticalInternOrder) {
  // Ids ascend while names descend, so id order and name order disagree
  // on every pair: slices must still come out in name order, and match
  // the same event interned alphabetically — attributed with the SAME
  // scratch, so switching tables must invalidate its ranks too.
  SymbolTable reversed;
  for (const char* name : {"zeta", "tomcat", "squid", "mysql", "apache"}) {
    reversed.Intern(name);
  }
  SymbolTable forward;
  for (const char* name : {"apache", "mysql", "squid", "tomcat", "zeta"}) {
    forward.Intern(name);
  }
  AttrScratch scratch;
  AttrVec by_reversed;
  AttributeTxn(TieredEvent(reversed, "zeta", "squid", "apache"), reversed, scratch, by_reversed);
  AttrVec by_forward;
  AttributeTxn(TieredEvent(forward, "zeta", "squid", "apache"), forward, scratch, by_forward);

  ASSERT_FALSE(by_reversed.empty());
  ASSERT_EQ(by_reversed.size(), by_forward.size());
  for (size_t i = 0; i < by_reversed.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(reversed.Name(by_reversed[i - 1].stage), reversed.Name(by_reversed[i].stage));
    }
    EXPECT_EQ(reversed.Name(by_reversed[i].stage), forward.Name(by_forward[i].stage));
    EXPECT_EQ(by_reversed[i].state, by_forward[i].state) << "slice " << i;
    EXPECT_EQ(by_reversed[i].ns, by_forward[i].ns) << "slice " << i;
  }
  EXPECT_EQ(reversed.Name(by_reversed.front().stage), "apache");
  EXPECT_EQ(reversed.Name(by_reversed.back().stage), "zeta");
}

// ---- Daemon integration ----------------------------------------------

TEST(AttributionTest, DaemonAttributesPublishedTransactions) {
  sim::Scheduler sched;
  Whodunitd daemon(sched);
  const uint64_t txn = daemon.BeginTxn("proxy", "checkout", 0);
  ASSERT_NE(txn, 0u);
  sched.RunUntil(1500);
  daemon.JoinSpan(txn, "db", /*link=*/1, sched.now(), /*queue_ns=*/300);
  sched.RunUntil(4000);
  daemon.EndSpan(txn, "db", sched.now(), {/*service_ns=*/400, /*lock_ns=*/700});
  sched.RunUntil(5000);
  daemon.CompleteTxn(txn, sched.now());
  daemon.Shutdown();
  sched.Run();

  const auto events = daemon.RecentEvents();
  ASSERT_EQ(events.size(), 1u);
  const TxnEvent& ev = events[0];
  EXPECT_EQ(SliceSum(ev.attr), ev.end_ns - ev.start_ns);
  bool saw_lock = false;
  for (const AttrSlice& s : ev.attr) {
    if (s.stage == S("db") && s.state == WaitState::kLockWait) {
      saw_lock = true;
      EXPECT_EQ(s.ns, 700);
    }
  }
  EXPECT_TRUE(saw_lock);

  // The folded export carries the same totals, type;stage;state keyed.
  const std::string folded = daemon.ExportAttrFolded();
  EXPECT_NE(folded.find("checkout;db;lock_wait 700\n"), std::string::npos)
      << folded;
}

TEST(AttributionTest, DaemonAttributionKnobOff) {
  sim::Scheduler sched;
  LiveOptions lo;
  lo.attribution = false;
  Whodunitd daemon(sched, lo);
  const uint64_t txn = daemon.BeginTxn("proxy", "", 0);
  sched.RunUntil(100);
  daemon.CompleteTxn(txn, sched.now());
  daemon.Shutdown();
  sched.Run();
  const auto events = daemon.RecentEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].attr.empty());
  EXPECT_TRUE(daemon.ExportAttrFolded().empty());
}

// ---- Aggregator fold -------------------------------------------------

TxnEvent AttributedEvent(const std::string& type, context::NodeId ctxt,
                         int64_t ns) {
  TxnEvent ev;
  ev.type = S(type);
  ev.start_ns = 0;
  ev.end_ns = ns;
  ev.spans.push_back({S("stage"), 0, ns, -1, 0});
  ev.attr.push_back({S("stage"), ctxt, WaitState::kService, ns});
  return ev;
}

TEST(AttributionTest, AggregatorMergeRemapsAttrContexts) {
  LiveAggregator a, b;
  a.Ingest(AttributedEvent("checkout", /*ctxt=*/1, 100));
  b.Ingest(AttributedEvent("checkout", /*ctxt=*/1, 40));
  b.Ingest(AttributedEvent("browse", /*ctxt=*/2, 7));

  // b's shard-local node 1 is node 5 on this side, node 2 is node 1:
  // the checkout rows must NOT merge (different post-remap contexts),
  // while browse lands on ctxt 1.
  a.MergeFrom(b, /*ctxt_remap=*/{0, 5, 1});

  const auto rows = a.AttrRows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].type, "browse");
  EXPECT_EQ(rows[0].ctxt, 1u);
  EXPECT_EQ(rows[0].ns, 7);
  EXPECT_EQ(rows[1].type, "checkout");
  EXPECT_EQ(rows[1].ctxt, 1u);
  EXPECT_EQ(rows[1].ns, 100);
  EXPECT_EQ(rows[2].type, "checkout");
  EXPECT_EQ(rows[2].ctxt, 5u);
  EXPECT_EQ(rows[2].ns, 40);

  // The folded export folds the context dimension back out.
  EXPECT_EQ(a.ExportAttrFolded(),
            "browse;stage;service 7\ncheckout;stage;service 140\n");
}

}  // namespace
}  // namespace whodunit::obs::live
