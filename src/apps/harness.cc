#include "src/apps/harness.h"

#include <algorithm>

#include "src/workload/calibration.h"

namespace whodunit::apps {

profiler::StageProfiler::Options StageOptions(std::string name, callpath::ProfilerMode mode) {
  profiler::StageProfiler::Options po;
  po.name = std::move(name);
  po.mode = mode;
  po.sample_period = workload::kSamplePeriod;
  po.costs.per_sample = workload::kPerSampleCost;
  po.costs.per_call = workload::kPerCallCost;
  po.costs.per_message_context = workload::kPerMessageContextCost;
  return po;
}

PathSplit SplitByPath(const profiler::Deployment& dep, const profiler::StageProfiler& stage,
                      context::Element last, context::Element via) {
  PathSplit split;
  for (const auto& [label, cct] : stage.LabeledCcts()) {
    if (label.parts.empty()) {
      continue;
    }
    const context::TransactionContext ctxt = dep.synopses().Lookup(label.parts.back());
    const std::vector<context::Element>& elements = ctxt.elements();
    if (elements.empty() || elements.back() != last) {
      continue;
    }
    ++split.contexts;
    const bool via_path = std::find(elements.begin(), elements.end(), via) != elements.end();
    (via_path ? split.via_ns : split.other_ns) += static_cast<uint64_t>(cct->TotalCpuTime());
  }
  return split;
}

}  // namespace whodunit::apps
