// Tests for profile serialization and the post-mortem presentation
// phase (paper §7.1: profiles written at exit, stitched offline).
#include "src/profiler/profile_io.h"

#include <gtest/gtest.h>

#include "src/profiler/stitcher.h"

namespace whodunit::profiler {
namespace {

using context::Synopsis;

StageProfiler::Options Opts(std::string name) {
  StageProfiler::Options o;
  o.name = std::move(name);
  o.sample_period = 100;
  return o;
}

// Builds a two-stage deployment with some profile data, as the RPC
// tests do.
struct Rig {
  Deployment dep;
  StageProfiler& caller;
  StageProfiler& callee;
  Synopsis request;

  Rig()
      : caller(dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("caller")))),
        callee(dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("callee")))) {
    ThreadProfile& ct = caller.CreateThread("c");
    ThreadProfile& st = callee.CreateThread("s");
    auto main_fn = caller.RegisterFunction("main");
    auto foo_fn = caller.RegisterFunction("foo");
    auto svc_fn = callee.RegisterFunction("svc");
    {
      auto f0 = caller.EnterFrame(ct, main_fn);
      caller.ChargeCpu(ct, 1000);
      auto f1 = caller.EnterFrame(ct, foo_fn);
      request = dep.synopsis_table().Materialize(caller.PrepareSend(ct));
    }
    caller.AccountMessage(500, request.WireBytes());
    callee.OnReceive(st, request);
    {
      auto g = callee.EnterFrame(st, svc_fn);
      callee.ChargeCpu(st, 2500);
    }
  }
};

TEST(ProfileIoTest, SerializeParseRoundTrip) {
  Rig rig;
  std::string text = SerializeProfile(rig.callee);
  EXPECT_NE(text.find("whodunit-profile 1"), std::string::npos);
  EXPECT_NE(text.find("stage callee"), std::string::npos);

  LoadedProfile loaded;
  ASSERT_TRUE(ParseProfile(text, &loaded));
  EXPECT_EQ(loaded.stage_name, "callee");
  ASSERT_EQ(loaded.ccts.size(), 1u);
  EXPECT_EQ(loaded.ccts[0].first, rig.request);
  EXPECT_EQ(loaded.ccts[0].second.TotalCpuTime(), 2500);
  EXPECT_EQ(loaded.ccts[0].second.TotalSamples(), 25u);
  // The function name survived.
  bool found = false;
  for (uint32_t i = 0; i < loaded.functions.size(); ++i) {
    if (loaded.functions.NameOf(i) == "svc") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ProfileIoTest, ByteCountersRoundTrip) {
  Rig rig;
  LoadedProfile loaded;
  ASSERT_TRUE(ParseProfile(SerializeProfile(rig.caller), &loaded));
  EXPECT_EQ(loaded.payload_bytes, 500u);
  EXPECT_EQ(loaded.context_bytes, rig.request.WireBytes());
}

TEST(ProfileIoTest, DictionaryRoundTrip) {
  Rig rig;
  std::string text = SerializeDictionary(rig.dep);
  std::map<uint32_t, std::string> dict;
  ASSERT_TRUE(ParseDictionary(text, &dict));
  ASSERT_FALSE(dict.empty());
  // The send point's call path is described.
  bool mentions_foo = false;
  for (const auto& [id, desc] : dict) {
    if (desc.find("foo") != std::string::npos) {
      mentions_foo = true;
    }
  }
  EXPECT_TRUE(mentions_foo);
}

TEST(ProfileIoTest, MalformedInputsRejected) {
  LoadedProfile loaded;
  EXPECT_FALSE(ParseProfile("", &loaded));
  EXPECT_FALSE(ParseProfile("not-a-profile\n", &loaded));
  EXPECT_FALSE(ParseProfile("whodunit-profile 1\nstage x\n", &loaded));  // no end
  EXPECT_FALSE(ParseProfile("whodunit-profile 1\nnode 0 0 f 1 1 1\nend\n",
                            &loaded));  // node before cct
  std::map<uint32_t, std::string> dict;
  EXPECT_FALSE(ParseDictionary("garbage", &dict));
}

TEST(ProfileIoTest, OfflineStitchReconstructsEdges) {
  Rig rig;
  std::vector<LoadedProfile> profiles(2);
  ASSERT_TRUE(ParseProfile(SerializeProfile(rig.caller), &profiles[0]));
  ASSERT_TRUE(ParseProfile(SerializeProfile(rig.callee), &profiles[1]));
  std::map<uint32_t, std::string> dict;
  ASSERT_TRUE(ParseDictionary(SerializeDictionary(rig.dep), &dict));

  std::string report = OfflineStitch(profiles, dict);
  EXPECT_NE(report.find("stage 'caller'"), std::string::npos);
  EXPECT_NE(report.find("stage 'callee'"), std::string::npos);
  EXPECT_NE(report.find("svc"), std::string::npos);
  // The request edge caller -> callee was recovered offline.
  EXPECT_NE(report.find("caller (origin) --["), std::string::npos);
  EXPECT_NE(report.find("--> callee"), std::string::npos);
}

TEST(FlatProfileTest, RanksFunctionsByCpu) {
  Rig rig;
  std::string flat = rig.callee.RenderFlatProfile();
  EXPECT_NE(flat.find("svc"), std::string::npos);
  EXPECT_NE(flat.find("100%"), std::string::npos);
  // The flat profile merges contexts: only function totals remain.
  std::string caller_flat = rig.caller.RenderFlatProfile();
  size_t main_pos = caller_flat.find("main");
  size_t foo_pos = caller_flat.find("foo");
  ASSERT_NE(main_pos, std::string::npos);
  ASSERT_NE(foo_pos, std::string::npos);
  EXPECT_LT(main_pos, foo_pos);  // main has all the CPU, listed first
}

TEST(StitcherDotTest, EmitsValidLookingGraphviz) {
  Rig rig;
  Stitcher stitcher(rig.dep);
  std::string dot = stitcher.RenderDot();
  EXPECT_NE(dot.find("digraph whodunit"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("\"caller:origin\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("}\n"), std::string::npos);
}

}  // namespace
}  // namespace whodunit::profiler
