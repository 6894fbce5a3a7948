// Post-mortem reporting from serialized profiles (paper §7.1).
//
// Whodunit's run-time writes one profile file per stage plus a context
// dictionary when the profiled programs exit; a separate presentation
// step stitches them. This example does the full round trip through
// real files:
//
//   offline_report [output_dir]     (default: ./whodunit_profiles)
//
// Step 1 profiles a three-stage deployment and writes
//   <dir>/caller.profile, <dir>/middle.profile, <dir>/leaf.profile,
//   <dir>/contexts.dict
// Step 2 reads the files back — using nothing else — and prints the
// stitched end-to-end transactional profile.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "src/obs/export.h"
#include "src/profiler/deployment.h"
#include "src/profiler/profile_io.h"
#include "src/profiler/stage_profiler.h"

namespace {

using namespace whodunit;
using profiler::StageProfiler;

void WriteFile(const std::filesystem::path& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

StageProfiler::Options Opts(std::string name) {
  StageProfiler::Options o;
  o.name = std::move(name);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "whodunit_profiles";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "offline_report: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // ---- Step 1: a profiled run (three stages, two request types) ----
  profiler::Deployment dep;
  auto& caller = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("caller")));
  auto& middle = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("middle")));
  auto& leaf = dep.AddStage(std::make_unique<StageProfiler>(dep, Opts("leaf")));
  auto& ct = caller.CreateThread("main");
  auto& mt = middle.CreateThread("svc");
  auto& lt = leaf.CreateThread("db");
  auto search_fn = caller.RegisterFunction("search");
  auto browse_fn = caller.RegisterFunction("browse");
  auto logic_fn = middle.RegisterFunction("business_logic");
  auto query_fn = leaf.RegisterFunction("run_query");

  for (int i = 0; i < 10; ++i) {
    auto via = i % 3 == 0 ? search_fn : browse_fn;
    auto f0 = caller.EnterFrame(ct, via);
    caller.ChargeCpu(ct, sim::Millis(2));
    context::SynopsisId s1 = caller.PrepareSend(ct);
    middle.OnReceive(mt, s1);
    context::SynopsisId s2 = context::kEmptySynopsis;
    {
      auto f1 = middle.EnterFrame(mt, logic_fn);
      middle.ChargeCpu(mt, sim::Millis(5));
      s2 = middle.PrepareSend(mt);
    }
    leaf.OnReceive(lt, s2);
    {
      auto f2 = leaf.EnterFrame(lt, query_fn);
      leaf.ChargeCpu(lt, via == search_fn ? sim::Millis(40) : sim::Millis(4));
      context::SynopsisId resp = leaf.PrepareReply(lt);
      middle.OnReceive(mt, resp);
    }
    context::SynopsisId resp2 = middle.PrepareReply(mt);
    caller.OnReceive(ct, resp2);
  }

  // "When the program exits, Whodunit ... writes the profile data to
  // disk."
  WriteFile(dir / "caller.profile", profiler::SerializeProfile(caller));
  WriteFile(dir / "middle.profile", profiler::SerializeProfile(middle));
  WriteFile(dir / "leaf.profile", profiler::SerializeProfile(leaf));
  WriteFile(dir / "contexts.dict", profiler::SerializeDictionary(dep));
  std::printf("wrote 3 stage profiles + dictionary to %s/\n\n", dir.c_str());

  // ---- Step 2: the presentation phase, from files alone ----
  std::vector<profiler::LoadedProfile> profiles(3);
  bool ok = profiler::ParseProfile(ReadFile(dir / "caller.profile"), &profiles[0]) &&
            profiler::ParseProfile(ReadFile(dir / "middle.profile"), &profiles[1]) &&
            profiler::ParseProfile(ReadFile(dir / "leaf.profile"), &profiles[2]);
  std::map<uint32_t, std::string> dictionary;
  ok = ok && profiler::ParseDictionary(ReadFile(dir / "contexts.dict"), &dictionary);
  if (!ok) {
    std::fprintf(stderr, "failed to re-read the profile files\n");
    return 1;
  }
  std::printf("%s", profiler::OfflineStitch(profiles, dictionary).c_str());
  std::printf("\nNote how the leaf's run_query cost is split by which caller path\n"
              "(search vs browse) reached it, two stages upstream.\n");

  // ---- Step 3: the profiler's own telemetry, same round trip ----
  // The obs layer (docs/METRICS.md) watched the run from the inside:
  // dump its JSON export next to the profiles, then re-read and render
  // it from the file alone — the path every bench's
  // BENCH_*.metrics.json dump takes.
  const std::filesystem::path metrics_path = dir / "metrics.json";
  if (!obs::DumpGlobalMetrics(metrics_path.string())) {
    std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
    return 1;
  }
  obs::MetricsSnapshot snapshot;
  std::vector<obs::SpanRecord> spans;
  if (!obs::ParseJson(ReadFile(metrics_path), &snapshot, &spans)) {
    std::fprintf(stderr, "failed to re-read %s\n", metrics_path.c_str());
    return 1;
  }
  std::printf("\n===== profiler self-observability (re-read from %s) =====\n",
              metrics_path.c_str());
  std::printf("%s", obs::RenderText(snapshot, &spans).c_str());
  return 0;
}
