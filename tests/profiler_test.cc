#include "src/profiler/stage_profiler.h"

#include <gtest/gtest.h>

#include "src/profiler/stitcher.h"

namespace whodunit::profiler {
namespace {

using callpath::ProfilerMode;
using context::Element;
using context::ElementKind;
using context::Synopsis;
using context::TransactionContext;

StageProfiler::Options Opts(std::string name, ProfilerMode mode = ProfilerMode::kWhodunit) {
  StageProfiler::Options o;
  o.name = std::move(name);
  o.mode = mode;
  o.sample_period = 100;  // dense sampling for tests
  return o;
}

TEST(StageProfilerTest, SamplesLandInOriginCct) {
  Deployment dep;
  StageProfiler prof(dep, Opts("web"));
  ThreadProfile& tp = prof.CreateThread("t0");
  auto main_fn = prof.RegisterFunction("main");
  auto work_fn = prof.RegisterFunction("work");
  {
    auto f1 = prof.EnterFrame(tp, main_fn);
    auto f2 = prof.EnterFrame(tp, work_fn);
    prof.ChargeCpu(tp, 1000);
  }
  const auto* cct = prof.FindCct(Synopsis{});
  ASSERT_NE(cct, nullptr);
  EXPECT_EQ(cct->TotalCpuTime(), 1000);
  EXPECT_EQ(cct->TotalSamples(), 10u);
  EXPECT_EQ(prof.total_samples(), 10u);
}

TEST(StageProfilerTest, ChargeCpuAddsSamplingOverhead) {
  Deployment dep;
  auto opts = Opts("s", ProfilerMode::kCsprof);
  opts.costs.per_sample = 7;
  StageProfiler prof(dep, opts);
  ThreadProfile& tp = prof.CreateThread("t");
  // 1000 ns at period 100 -> 10 samples -> 70 ns overhead.
  EXPECT_EQ(prof.ChargeCpu(tp, 1000), 1070);
}

TEST(StageProfilerTest, NoneModeChargesNothingAndDropsSamples) {
  Deployment dep;
  StageProfiler prof(dep, Opts("s", ProfilerMode::kNone));
  ThreadProfile& tp = prof.CreateThread("t");
  EXPECT_EQ(prof.ChargeCpu(tp, 1000), 1000);
  EXPECT_EQ(prof.total_samples(), 0u);
}

TEST(StageProfilerTest, GprofChargesPerCall) {
  Deployment dep;
  auto opts = Opts("s", ProfilerMode::kGprof);
  opts.costs.per_call = 50;
  opts.costs.per_sample = 0;
  StageProfiler prof(dep, opts);
  ThreadProfile& tp = prof.CreateThread("t");
  auto f = prof.RegisterFunction("f");
  auto g = prof.RegisterFunction("g");
  {
    auto f1 = prof.EnterFrame(tp, f);
    auto f2 = prof.EnterFrame(tp, g);
  }
  {
    auto f3 = prof.EnterFrame(tp, f);
    // 3 procedure entries since the last charge -> 150 ns of mcount.
    EXPECT_EQ(prof.ChargeCpu(tp, 1000), 1150);
    // Charged exactly once.
    EXPECT_EQ(prof.ChargeCpu(tp, 1000), 1000);
  }
  // gprof still samples: CCT has data.
  EXPECT_GT(prof.total_samples(), 0u);
}

TEST(StageProfilerTest, CsprofCostIndependentOfCallCount) {
  // The paper's Table 2 observation: csprof's overhead does not grow
  // with call density, gprof's does.
  Deployment dep;
  auto csprof_opts = Opts("a", ProfilerMode::kCsprof);
  csprof_opts.costs.per_sample = 10;
  auto gprof_opts = Opts("b", ProfilerMode::kGprof);
  gprof_opts.costs.per_sample = 10;
  gprof_opts.costs.per_call = 100;
  StageProfiler cs(dep, csprof_opts), gp(dep, gprof_opts);
  ThreadProfile& tc = cs.CreateThread("t");
  ThreadProfile& tg = gp.CreateThread("t");
  auto f = cs.RegisterFunction("f");

  sim::SimTime cs_total = 0, gp_total = 0;
  for (int i = 0; i < 100; ++i) {
    {
      auto g1 = cs.EnterFrame(tc, f);
      cs_total += cs.ChargeCpu(tc, 100);
    }
    {
      auto g2 = gp.EnterFrame(tg, f);
      gp_total += gp.ChargeCpu(tg, 100);
    }
  }
  // Same app work; gprof pays 100 calls * 100 ns extra.
  EXPECT_GT(gp_total, cs_total + 9000);
}

TEST(StageProfilerTest, LocalContextSwitchesCct) {
  Deployment dep;
  StageProfiler prof(dep, Opts("proxy"));
  ThreadProfile& tp = prof.CreateThread("loop");
  auto fn = prof.RegisterFunction("handler_code");

  TransactionContext hit({Element{ElementKind::kHandler, 1}, Element{ElementKind::kHandler, 2}});
  TransactionContext miss({Element{ElementKind::kHandler, 1}, Element{ElementKind::kHandler, 3}});

  prof.SetLocalContext(tp, hit);
  {
    auto g = prof.EnterFrame(tp, fn);
    prof.ChargeCpu(tp, 600);
  }
  prof.SetLocalContext(tp, miss);
  {
    auto g = prof.EnterFrame(tp, fn);
    prof.ChargeCpu(tp, 400);
  }

  auto labeled = prof.LabeledCcts();
  ASSERT_EQ(labeled.size(), 2u);
  EXPECT_EQ(prof.total_cpu_time(), 1000);
  // Each context got its own CCT with its own share.
  uint32_t hit_part = dep.synopses().Intern(hit);
  uint32_t miss_part = dep.synopses().Intern(miss);
  const auto* hit_cct = prof.FindCct(Synopsis{{hit_part}});
  const auto* miss_cct = prof.FindCct(Synopsis{{miss_part}});
  ASSERT_NE(hit_cct, nullptr);
  ASSERT_NE(miss_cct, nullptr);
  EXPECT_EQ(hit_cct->TotalCpuTime(), 600);
  EXPECT_EQ(miss_cct->TotalCpuTime(), 400);
}

TEST(StageProfilerTest, RpcRoundTripAcrossStages) {
  // The Figure 6/7 scenario: a caller with two transaction paths (foo,
  // bar) into one callee; the callee's profile separates by caller
  // context, and the caller recognizes responses.
  Deployment dep;
  StageProfiler caller(dep, Opts("caller"));
  StageProfiler callee(dep, Opts("callee"));
  ThreadProfile& ct = caller.CreateThread("main");
  ThreadProfile& st = callee.CreateThread("svc");

  auto main_fn = caller.RegisterFunction("main_caller");
  auto foo_fn = caller.RegisterFunction("foo");
  auto bar_fn = caller.RegisterFunction("bar");
  auto svc_fn = callee.RegisterFunction("callee_rpc_svc");

  auto do_rpc = [&](callpath::FunctionId via) {
    auto g0 = caller.EnterFrame(ct, main_fn);
    auto g1 = caller.EnterFrame(ct, via);
    Synopsis request = dep.synopsis_table().Materialize(caller.PrepareSend(ct));

    // --- at the callee ---
    bool was_response = callee.OnReceive(st, request);
    EXPECT_FALSE(was_response);
    Synopsis response;
    {
      auto g2 = callee.EnterFrame(st, svc_fn);
      callee.ChargeCpu(st, 500);
      response = dep.synopsis_table().Materialize(callee.PrepareReply(st));
    }

    // --- back at the caller ---
    EXPECT_TRUE(response.HasPrefix(request));
    bool is_response = caller.OnReceive(ct, response);
    EXPECT_TRUE(is_response);
    caller.ChargeCpu(ct, 100);
    return request;
  };

  Synopsis via_foo = do_rpc(foo_fn);
  Synopsis via_bar = do_rpc(bar_fn);

  // Different send paths -> different synopses.
  EXPECT_NE(via_foo, via_bar);
  // The callee kept two CCTs, one per caller context (Figure 7: the
  // callee's call-path tree appears twice).
  EXPECT_EQ(callee.LabeledCcts().size(), 2u);
  const auto* cct_foo = callee.FindCct(via_foo);
  ASSERT_NE(cct_foo, nullptr);
  EXPECT_EQ(cct_foo->TotalCpuTime(), 500);
  // Caller profile stayed in the origin CCT (responses restored it).
  ASSERT_EQ(caller.LabeledCcts().size(), 1u);
  EXPECT_TRUE(caller.LabeledCcts()[0].first.empty());
  EXPECT_EQ(caller.total_cpu_time(), 200);
}

TEST(StageProfilerTest, ThreeStageChainExtendsSynopsis) {
  Deployment dep;
  StageProfiler web(dep, Opts("web")), app(dep, Opts("app")), db(dep, Opts("db"));
  ThreadProfile& wt = web.CreateThread("w");
  ThreadProfile& at = app.CreateThread("a");
  ThreadProfile& dt = db.CreateThread("d");
  auto wf = web.RegisterFunction("handle");
  auto af = app.RegisterFunction("logic");

  Synopsis s1;
  {
    auto g = web.EnterFrame(wt, wf);
    s1 = dep.synopsis_table().Materialize(web.PrepareSend(wt));
  }
  app.OnReceive(at, s1);
  Synopsis s2;
  {
    auto g = app.EnterFrame(at, af);
    s2 = dep.synopsis_table().Materialize(app.PrepareSend(at));
  }
  db.OnReceive(dt, s2);
  db.ChargeCpu(dt, 300);

  EXPECT_EQ(s1.parts.size(), 1u);
  EXPECT_EQ(s2.parts.size(), 2u);
  EXPECT_TRUE(s2.HasPrefix(s1));
  // The DB's CCT label is the two-part synopsis: it reflects the call
  // paths through web AND app.
  const auto* dcct = db.FindCct(s2);
  ASSERT_NE(dcct, nullptr);
  EXPECT_EQ(dcct->TotalCpuTime(), 300);
}

TEST(StageProfilerTest, SharedMemoryAdoption) {
  Deployment dep;
  StageProfiler prof(dep, Opts("apache"));
  ThreadProfile& listener = prof.CreateThread("listener");
  ThreadProfile& worker = prof.CreateThread("worker");
  auto accept_fn = prof.RegisterFunction("apr_socket_accept");
  auto push_fn = prof.RegisterFunction("ap_queue_push");
  auto process_fn = prof.RegisterFunction("ap_process_connection");

  uint32_t produce_ctxt;
  {
    auto g0 = prof.EnterFrame(listener, accept_fn);
    auto g1 = prof.EnterFrame(listener, push_fn);
    produce_ctxt = prof.CurrentCtxtId(listener);
  }
  // Flow detected: worker consumes and continues the transaction.
  prof.AdoptCtxt(worker, produce_ctxt);
  {
    auto g = prof.EnterFrame(worker, process_fn);
    prof.ChargeCpu(worker, 900);
  }
  // The worker's samples are in a CCT labeled by the producer's
  // context, not the origin CCT.
  const context::SynopsisId label = prof.SynopsisOfCtxtId(produce_ctxt);
  const auto* cct = prof.FindCct(label);
  ASSERT_NE(cct, nullptr);
  EXPECT_EQ(cct->TotalCpuTime(), 900);
  // And the label describes the listener's call path at the push.
  std::string desc = dep.DescribeSynopsis(dep.synopsis_table().Materialize(label));
  EXPECT_NE(desc.find("apr_socket_accept>ap_queue_push"), std::string::npos);
}

TEST(StageProfilerTest, MessageByteAccounting) {
  Deployment dep;
  StageProfiler prof(dep, Opts("s"));
  prof.AccountMessage(1000, 4);
  prof.AccountMessage(500, 9);
  EXPECT_EQ(prof.payload_bytes_sent(), 1500u);
  EXPECT_EQ(prof.context_bytes_sent(), 13u);
}

TEST(StageProfilerTest, CrosstalkTagStableForSameContext) {
  Deployment dep;
  StageProfiler prof(dep, Opts("db"));
  ThreadProfile& t1 = prof.CreateThread("t1");
  ThreadProfile& t2 = prof.CreateThread("t2");
  Synopsis req{{7}};
  prof.OnReceive(t1, req);
  prof.OnReceive(t2, req);
  EXPECT_EQ(prof.CrosstalkTag(t1), prof.CrosstalkTag(t2));
  Synopsis other{{8}};
  prof.OnReceive(t2, other);
  EXPECT_NE(prof.CrosstalkTag(t1), prof.CrosstalkTag(t2));
}

TEST(StitcherTest, RecoversRequestEdges) {
  Deployment dep;
  auto& caller = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("caller")));
  auto& callee = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("callee")));
  ThreadProfile& ct = caller.CreateThread("c");
  ThreadProfile& st = callee.CreateThread("s");
  auto foo = caller.RegisterFunction("foo");

  caller.ChargeCpu(ct, 100);  // origin CCT exists
  Synopsis req;
  {
    auto g = caller.EnterFrame(ct, foo);
    req = dep.synopsis_table().Materialize(caller.PrepareSend(ct));
  }
  callee.OnReceive(st, req);
  callee.ChargeCpu(st, 200);

  Stitcher stitcher(dep);
  auto edges = stitcher.Edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from_stage, "caller");
  EXPECT_EQ(edges[0].to_stage, "callee");
  EXPECT_EQ(edges[0].to_label, req);
  EXPECT_NE(edges[0].send_context.find("foo"), std::string::npos);

  std::string text = stitcher.Render();
  EXPECT_NE(text.find("caller"), std::string::npos);
  EXPECT_NE(text.find("-->"), std::string::npos);
}

}  // namespace
}  // namespace whodunit::profiler
