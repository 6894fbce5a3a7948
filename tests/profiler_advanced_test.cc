// Additional profiler-runtime coverage: pipelined RPCs, transaction
// resets, mode gating, and render output details.
#include <gtest/gtest.h>

#include "src/profiler/stage_profiler.h"

namespace whodunit::profiler {
namespace {

using callpath::ProfilerMode;
using context::Synopsis;

StageProfiler::Options Opts(std::string name, ProfilerMode mode = ProfilerMode::kWhodunit) {
  StageProfiler::Options o;
  o.name = std::move(name);
  o.mode = mode;
  o.sample_period = 100;
  return o;
}

TEST(ProfilerAdvancedTest, PipelinedRequestsMatchInAnyOrder) {
  // Two outstanding RPCs from one thread; the responses return in the
  // opposite order and must each restore the right context.
  Deployment dep;
  StageProfiler caller(dep, Opts("caller"));
  StageProfiler callee(dep, Opts("callee"));
  ThreadProfile& ct = caller.CreateThread("c");
  ThreadProfile& st = callee.CreateThread("s");
  auto foo = caller.RegisterFunction("foo");
  auto bar = caller.RegisterFunction("bar");

  Synopsis req_foo, req_bar;
  {
    auto f = caller.EnterFrame(ct, foo);
    req_foo = dep.synopsis_table().Materialize(caller.PrepareSend(ct));
  }
  {
    auto f = caller.EnterFrame(ct, bar);
    req_bar = dep.synopsis_table().Materialize(caller.PrepareSend(ct));
  }

  // Callee answers bar first.
  callee.OnReceive(st, req_bar);
  Synopsis resp_bar = dep.synopsis_table().Materialize(callee.PrepareReply(st));
  callee.OnReceive(st, req_foo);
  Synopsis resp_foo = dep.synopsis_table().Materialize(callee.PrepareReply(st));

  EXPECT_TRUE(caller.OnReceive(ct, resp_bar));
  EXPECT_TRUE(caller.OnReceive(ct, resp_foo));
  // Both pending sends consumed: replaying a response is now treated
  // as a new request, not a response.
  EXPECT_FALSE(caller.OnReceive(ct, resp_foo));
}

TEST(ProfilerAdvancedTest, ResetClearsPendingSends) {
  Deployment dep;
  StageProfiler prof(dep, Opts("s"));
  ThreadProfile& tp = prof.CreateThread("t");
  auto fn = prof.RegisterFunction("fn");
  Synopsis req;
  {
    auto f = prof.EnterFrame(tp, fn);
    req = dep.synopsis_table().Materialize(prof.PrepareSend(tp));
  }
  prof.ResetTransaction(tp);
  // A response to the pre-reset request no longer matches.
  Synopsis fake_response = req.Extend(Synopsis{{999}});
  EXPECT_FALSE(prof.OnReceive(tp, fake_response));
}

TEST(ProfilerAdvancedTest, NoneModeDisablesContextMachinery) {
  Deployment dep;
  StageProfiler prof(dep, Opts("s", ProfilerMode::kNone));
  ThreadProfile& tp = prof.CreateThread("t");
  EXPECT_EQ(prof.PrepareSend(tp), context::kEmptySynopsis);
  EXPECT_FALSE(prof.OnReceive(tp, Synopsis{{1, 2}}));
  EXPECT_EQ(tp.incoming(), context::kEmptySynopsis);
  prof.AdoptCtxt(tp, 0);  // no-op, no crash
}

TEST(ProfilerAdvancedTest, CsprofTracksNoContextsButSamples) {
  Deployment dep;
  StageProfiler prof(dep, Opts("s", ProfilerMode::kCsprof));
  ThreadProfile& tp = prof.CreateThread("t");
  auto fn = prof.RegisterFunction("fn");
  prof.OnReceive(tp, Synopsis{{5}});  // ignored: csprof has no contexts
  {
    auto f = prof.EnterFrame(tp, fn);
    prof.ChargeCpu(tp, 1000);
  }
  auto labeled = prof.LabeledCcts();
  ASSERT_EQ(labeled.size(), 1u);
  EXPECT_TRUE(labeled[0].first.empty());  // single unlabeled CCT
  EXPECT_EQ(prof.total_samples(), 10u);
}

TEST(ProfilerAdvancedTest, WireBytesGrowAlongTheChain) {
  Deployment dep;
  StageProfiler a(dep, Opts("a")), b(dep, Opts("b")), c(dep, Opts("c"));
  ThreadProfile& at = a.CreateThread("a");
  ThreadProfile& bt = b.CreateThread("b");
  ThreadProfile& ct = c.CreateThread("c");
  auto fn_a = a.RegisterFunction("fa");
  auto fn_b = b.RegisterFunction("fb");

  Synopsis s1;
  {
    auto f = a.EnterFrame(at, fn_a);
    s1 = dep.synopsis_table().Materialize(a.PrepareSend(at));
  }
  EXPECT_EQ(s1.WireBytes(), 4u);  // one 4-byte part
  b.OnReceive(bt, s1);
  Synopsis s2;
  {
    auto f = b.EnterFrame(bt, fn_b);
    s2 = dep.synopsis_table().Materialize(b.PrepareSend(bt));
  }
  EXPECT_EQ(s2.WireBytes(), 9u);  // two parts + '#'
  c.OnReceive(ct, s2);
  Synopsis s3 = dep.synopsis_table().Materialize(c.PrepareReply(ct));
  EXPECT_EQ(s3.WireBytes(), 14u);  // three parts + two '#'
  EXPECT_TRUE(s3.HasPrefix(s2));
  EXPECT_TRUE(s2.HasPrefix(s1));
}

TEST(ProfilerAdvancedTest, SameCallPathSameSynopsisPart) {
  // The paper (§8.4): requests through the same call path transfer the
  // SAME transaction context — the synopsis must be identical, not a
  // fresh id per message.
  Deployment dep;
  StageProfiler prof(dep, Opts("squid"));
  ThreadProfile& tp = prof.CreateThread("t");
  auto fn = prof.RegisterFunction("forward");
  Synopsis first, second;
  {
    auto f = prof.EnterFrame(tp, fn);
    first = dep.synopsis_table().Materialize(prof.PrepareSend(tp));
  }
  {
    auto f = prof.EnterFrame(tp, fn);
    second = dep.synopsis_table().Materialize(prof.PrepareSend(tp));
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(dep.synopses().size(), 1u);
}

TEST(ProfilerAdvancedTest, RenderMentionsContextsAndShares) {
  Deployment dep;
  StageProfiler prof(dep, Opts("db"));
  ThreadProfile& tp = prof.CreateThread("t");
  auto fn = prof.RegisterFunction("query");
  prof.OnReceive(tp, Synopsis{{3}});
  {
    auto f = prof.EnterFrame(tp, fn);
    prof.ChargeCpu(tp, 1000);
  }
  std::string text = prof.RenderTransactionalProfile();
  EXPECT_NE(text.find("transactional profile of stage 'db'"), std::string::npos);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("[100% of stage CPU"), std::string::npos);
}

}  // namespace
}  // namespace whodunit::profiler
