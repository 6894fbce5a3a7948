// Interned synopses (context::SynopsisTable) against the value
// Synopsis, reply recognition over interned ids, and the
// allocation-free warm send/receive path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/context/synopsis.h"
#include "src/profiler/stage_profiler.h"
#include "src/util/rng.h"

// ---- Heap allocation counter ----------------------------------------
// Counts every global operator new in this binary, so a test can pin
// that a warm loop never touches the allocator.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace whodunit {
namespace {

using context::kEmptySynopsis;
using context::Synopsis;
using context::SynopsisId;
using context::SynopsisTable;
using profiler::Deployment;
using profiler::StageProfiler;
using profiler::ThreadProfile;

TEST(SynopsisTableTest, EmptyIsIdZero) {
  SynopsisTable table;
  EXPECT_EQ(table.Intern(Synopsis{}), kEmptySynopsis);
  EXPECT_EQ(table.Depth(kEmptySynopsis), 0u);
  EXPECT_EQ(table.LastPart(kEmptySynopsis), 0u);
  EXPECT_EQ(table.WireBytes(kEmptySynopsis), 0u);
  EXPECT_TRUE(table.Materialize(kEmptySynopsis).empty());
  EXPECT_EQ(table.size(), 1u);
}

TEST(SynopsisTableTest, FindInternsNothing) {
  SynopsisTable table;
  const SynopsisId a = table.Extend(kEmptySynopsis, 12);
  SynopsisId found = kEmptySynopsis;
  ASSERT_TRUE(table.Find(Synopsis{{12}}, &found));
  EXPECT_EQ(found, a);
  EXPECT_FALSE(table.Find(Synopsis{{12, 7}}, &found));
  EXPECT_EQ(table.size(), 2u);
}

// Random chains built by Extend agree with the value oracle on every
// operation the profiler uses, and interning is canonical.
TEST(SynopsisTableTest, RandomChainsMatchValueOracle) {
  util::Rng rng(20070321);
  SynopsisTable table;
  std::vector<SynopsisId> ids{kEmptySynopsis};
  std::vector<Synopsis> values{Synopsis{}};
  for (int step = 0; step < 4000; ++step) {
    // Extend a random existing chain by a part from a small alphabet,
    // so chains share prefixes and the same value recurs.
    const size_t from = rng.NextBelow(ids.size());
    if (values[from].parts.size() >= 8) {
      continue;
    }
    const auto part = static_cast<uint32_t>(rng.NextBelow(6));
    const SynopsisId id = table.Extend(ids[from], part);
    const Synopsis value = values[from].Extend(Synopsis{{part}});
    ASSERT_EQ(table.Materialize(id), value);
    ASSERT_EQ(table.Depth(id), value.parts.size());
    ASSERT_EQ(table.LastPart(id), part);
    ASSERT_EQ(table.Parent(id), ids[from]);
    ASSERT_EQ(table.WireBytes(id), value.WireBytes());
    ASSERT_EQ(table.Intern(value), id);
    ids.push_back(id);
    values.push_back(value);
  }
  // Same parts <=> same id; prefix tests agree pairwise.
  for (int probe = 0; probe < 20000; ++probe) {
    const size_t i = rng.NextBelow(ids.size());
    const size_t j = rng.NextBelow(ids.size());
    ASSERT_EQ(ids[i] == ids[j], values[i] == values[j]);
    ASSERT_EQ(table.HasPrefix(ids[i], ids[j]), values[i].HasPrefix(values[j]));
  }
  // Materialized labels sort exactly as the values do.
  std::vector<SynopsisId> by_id = ids;
  std::sort(by_id.begin(), by_id.end());
  by_id.erase(std::unique(by_id.begin(), by_id.end()), by_id.end());
  std::vector<Synopsis> materialized;
  for (SynopsisId id : by_id) {
    materialized.push_back(table.Materialize(id));
  }
  std::sort(materialized.begin(), materialized.end(),
            [](const Synopsis& a, const Synopsis& b) { return a.parts < b.parts; });
  std::vector<Synopsis> expected = values;
  std::sort(expected.begin(), expected.end(),
            [](const Synopsis& a, const Synopsis& b) { return a.parts < b.parts; });
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  EXPECT_EQ(materialized, expected);
}

StageProfiler::Options Opts(std::string name) {
  StageProfiler::Options o;
  o.name = std::move(name);
  o.sample_period = 100;
  return o;
}

// One thread holds two outstanding sends where the later one extends
// the earlier (it adopted a context derived from the first send). A
// reply to the inner send extends both; recognition takes the first
// matching pending send in send order, then the second, then none.
TEST(SynopsisTableTest, NestedPendingSendsMatchInSendOrder) {
  Deployment dep;
  StageProfiler stage(dep, Opts("b"));
  ThreadProfile& t = stage.CreateThread("t");
  ThreadProfile& u = stage.CreateThread("u");
  const auto f = stage.RegisterFunction("f");
  const auto g = stage.RegisterFunction("g");
  SynopsisTable& table = dep.synopsis_table();

  stage.OnReceive(t, Synopsis{{40}});
  const SynopsisId outer_incoming = t.incoming();
  SynopsisId outer = kEmptySynopsis;
  {
    auto frame = stage.EnterFrame(t, f);
    outer = stage.PrepareSend(t);
  }
  // u picks up the outer request, and t continues u's transaction.
  stage.OnReceive(u, outer);
  uint32_t derived = 0;
  {
    auto frame = stage.EnterFrame(u, g);
    derived = stage.CurrentCtxtId(u);
  }
  stage.AdoptCtxt(t, derived);
  const SynopsisId inner_incoming = t.incoming();
  ASSERT_TRUE(table.HasPrefix(inner_incoming, outer));
  SynopsisId inner = kEmptySynopsis;
  {
    auto frame = stage.EnterFrame(t, f);
    inner = stage.PrepareSend(t);
  }
  ASSERT_TRUE(table.HasPrefix(inner, outer));

  const SynopsisId reply = table.Extend(inner, 99);
  EXPECT_TRUE(stage.OnReceive(t, reply));
  EXPECT_EQ(t.incoming(), outer_incoming);  // the outer send's state
  EXPECT_TRUE(stage.OnReceive(t, reply));
  EXPECT_EQ(t.incoming(), inner_incoming);  // then the inner send's
  EXPECT_FALSE(stage.OnReceive(t, reply));  // then a new request
  EXPECT_EQ(t.incoming(), reply);
}

// A reply only extends its request: it leaves no pending send behind,
// so a later message extending it is a new request.
TEST(SynopsisTableTest, ReplySavesNoPendingSend) {
  Deployment dep;
  StageProfiler stage(dep, Opts("s"));
  ThreadProfile& t = stage.CreateThread("t");
  stage.OnReceive(t, Synopsis{{3}});
  const SynopsisId reply = stage.PrepareReply(t);
  EXPECT_EQ(dep.synopsis_table().Depth(reply), 2u);
  EXPECT_FALSE(stage.OnReceive(t, dep.synopsis_table().Extend(reply, 1)));
}

// The warm per-message path is integer work: once every context,
// path, synopsis and CCT a loop uses exists, sends, receives, context
// switches and crosstalk tags allocate nothing.
TEST(SynopsisTableTest, WarmSendReceiveLoopAllocatesNothing) {
  Deployment dep;
  StageProfiler web(dep, Opts("web"));
  StageProfiler app(dep, Opts("app"));
  StageProfiler db(dep, Opts("db"));
  ThreadProfile& wt = web.CreateThread("w");
  ThreadProfile& at = app.CreateThread("a");
  ThreadProfile& dt = db.CreateThread("d");
  const auto handle = web.RegisterFunction("handle");
  const auto servlet_a = app.RegisterFunction("servlet_a");
  const auto servlet_b = app.RegisterFunction("servlet_b");
  const auto query = db.RegisterFunction("query");
  const context::NodeId local = context::GlobalContextTree().Append(
      context::kEmptyContext, context::Element{context::ElementKind::kHandler, 5});

  uint64_t tags = 0;
  auto round_trip = [&](int i) {
    web.ResetTransaction(wt);
    auto f0 = web.EnterFrame(wt, handle);
    web.ChargeCpu(wt, 50);
    const SynopsisId s1 = web.PrepareSend(wt);
    app.OnReceive(at, s1);
    app.SetLocalContext(at, i % 2 == 0 ? local : context::kEmptyContext);
    {
      auto f1 = app.EnterFrame(at, i % 3 == 0 ? servlet_a : servlet_b);
      app.ChargeCpu(at, 80);
      const SynopsisId s2 = app.PrepareSend(at);
      db.OnReceive(dt, s2);
      auto f2 = db.EnterFrame(dt, query);
      tags += db.CrosstalkTag(dt);
      db.ChargeCpu(dt, 120);
      EXPECT_TRUE(app.OnReceive(at, db.PrepareReply(dt)));
    }
    EXPECT_TRUE(web.OnReceive(wt, app.PrepareReply(at)));
  };
  for (int i = 0; i < 64; ++i) {
    round_trip(i);
  }
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 3000; ++i) {
    round_trip(i);
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(tags, 0u);
}

}  // namespace
}  // namespace whodunit
