#include "src/obs/live/aggregator.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "src/obs/metrics.h"

namespace whodunit::obs::live {
namespace {

// Shared fallback name for type SymId 0 (no SetTxnType ever arrived),
// resolved only at render time.
const std::string kUntypedName("(untyped)");

}  // namespace

const std::string& LiveAggregator::TypeName(SymId id) const {
  return id == 0 ? kUntypedName : syms_->Name(id);
}

void LiveAggregator::Ingest(std::span<const TxnEvent> events) {
  uint64_t spans = 0;
  uint64_t attr_txns = 0;
  uint64_t attr_slices = 0;
  for (const TxnEvent& event : events) {
    ++txns_;
    spans += event.spans.size();
    // Integer-keyed probes; a slot is only allocated the first time a
    // type or stage id is seen, never per event.
    TypeState& type = by_type_[event.type];
    type.latency_ns.Add(
        static_cast<uint64_t>(std::max<int64_t>(event.end_ns - event.start_ns, 0)));
    if (event.error) {
      ++type.errors;
      ++errors_;
    }
    for (const StageSpan& span : event.spans) {
      StageState& stage = by_stage_[span.stage];
      ++stage.spans;
      stage.busy_ns += static_cast<uint64_t>(std::max<int64_t>(span.duration_ns, 0));
    }
    if (const context::NodeId root = event.root_ctxt; root != context::kEmptyContext) {
      // The origin context gets a (possibly zero-cost) row so a type
      // with little CPU but long waits still surfaces in the top
      // contexts; CPU-level attribution arrives separately via AddCost.
      CostOf(root);
    }
    if (!event.attr.empty()) {
      ++attr_txns;
      attr_slices += event.attr.size();
      for (const AttrSlice& slice : event.attr) {
        AttrNs(type, slice.stage, slice.ctxt, static_cast<uint8_t>(slice.state)) += slice.ns;
      }
    }
  }
  obs_txns_->Add(events.size());
  obs_spans_->Add(spans);
  if (attr_txns > 0) {
    obs_attr_txns_->Add(attr_txns);
    obs_attr_slices_->Add(attr_slices);
  }
}

int64_t& LiveAggregator::AttrNs(TypeState& type, SymId stage, context::NodeId ctxt,
                                uint8_t state) {
  const size_t chain = static_cast<size_t>(stage) * kWaitStateCount + state;
  if (chain >= type.attr_head.size()) {
    type.attr_head.resize(chain + 1, kNoCell);
  }
  uint32_t& head = type.attr_head[chain];
  uint32_t cell = head;
  while (cell != kNoCell && type.attr_cells[cell].ctxt != ctxt) {
    cell = type.attr_cells[cell].next;
  }
  if (cell == kNoCell) {
    cell = static_cast<uint32_t>(type.attr_cells.size());
    type.attr_cells.push_back(AttrCell{stage, ctxt, state, head, 0});
    head = cell;
  }
  return type.attr_cells[cell].ns;
}

uint64_t& LiveAggregator::CostOf(context::NodeId ctxt) {
  if (ctxt >= cost_by_ctxt_.size()) {
    cost_by_ctxt_.resize(static_cast<size_t>(ctxt) + 1);
  }
  std::optional<uint64_t>& cost = cost_by_ctxt_[ctxt];
  if (!cost.has_value()) {
    cost.emplace(0);
  }
  return *cost;
}

void LiveAggregator::AddCost(context::NodeId ctxt, uint64_t cost_ns) { CostOf(ctxt) += cost_ns; }

void LiveAggregator::NameTag(uint64_t tag, std::string_view name) {
  if (tag < tag_names_.size() && tag_names_[tag].has_value()) {
    return;
  }
  if (tag >= tag_names_.size()) {
    tag_names_.resize(static_cast<size_t>(tag) + 1);
  }
  tag_names_[tag].emplace(name);
}

void LiveAggregator::IngestWait(uint64_t waiter_tag, uint64_t holder_tag, uint64_t wait_ns) {
  obs_waits_->Add();
  waits_[{waiter_tag, holder_tag}].Add(static_cast<double>(wait_ns));
}

void LiveAggregator::MergeFrom(const LiveAggregator& other,
                               const std::vector<context::NodeId>& ctxt_remap) {
  // Translate the other shard's symbol ids into this table. When both
  // aggregators share one table (serial runs, tests) the remap is the
  // identity and interning is a no-op lookup.
  const std::vector<SymId> sym_remap =
      syms_ == other.syms_ ? std::vector<SymId>() : syms_->MergeFrom(*other.syms_);
  const auto remap_sym = [&](SymId id) {
    return id < sym_remap.size() ? sym_remap[id] : id;
  };
  other.by_type_.ForEach([&](SymId id, const TypeState& state) {
    TypeState& mine = by_type_[remap_sym(id)];
    mine.latency_ns.Merge(state.latency_ns);
    mine.errors += state.errors;
    for (const AttrCell& cell : state.attr_cells) {
      const context::NodeId here =
          cell.ctxt < ctxt_remap.size() ? ctxt_remap[cell.ctxt] : cell.ctxt;
      AttrNs(mine, remap_sym(cell.stage), here, cell.state) += cell.ns;
    }
  });
  other.by_stage_.ForEach([&](SymId id, const StageState& state) {
    StageState& mine = by_stage_[remap_sym(id)];
    mine.spans += state.spans;
    mine.busy_ns += state.busy_ns;
  });
  // Re-base the other side's tags above everything already present so
  // contexts from different shards never alias. Names and waits both
  // iterate in tag order, so the assignment is deterministic.
  uint64_t next_tag = tag_names_.size();
  for (const auto& [pair, stat] : waits_) {
    next_tag = std::max({next_tag, pair.first + 1, pair.second + 1});
  }
  std::map<uint64_t, uint64_t> tag_remap;
  auto remap_tag = [&](uint64_t tag) {
    auto [it, inserted] = tag_remap.emplace(tag, next_tag);
    if (inserted) {
      ++next_tag;
    }
    return it->second;
  };
  for (uint64_t tag = 0; tag < other.tag_names_.size(); ++tag) {
    if (other.tag_names_[tag].has_value()) {
      NameTag(remap_tag(tag), *other.tag_names_[tag]);
    }
  }
  for (const auto& [pair, stat] : other.waits_) {
    waits_[{remap_tag(pair.first), remap_tag(pair.second)}].Merge(stat);
  }
  for (context::NodeId ctxt = 0; ctxt < other.cost_by_ctxt_.size(); ++ctxt) {
    if (const std::optional<uint64_t>& cost = other.cost_by_ctxt_[ctxt]) {
      CostOf(ctxt < ctxt_remap.size() ? ctxt_remap[ctxt] : ctxt) += *cost;
    }
  }
  txns_ += other.txns_;
  errors_ += other.errors_;
}

void LiveAggregator::TypeRowsInto(std::vector<TypeRow>& rows) const {
  rows.resize(by_type_.size());
  size_t i = 0;
  by_type_.ForEach([&](SymId id, const TypeState& state) {
    TypeRow& row = rows[i++];
    row.type.assign(TypeName(id));
    row.count = state.latency_ns.count();
    row.errors = state.errors;
    row.mean_ms = state.latency_ns.mean() / 1e6;
    row.p50_ms = state.latency_ns.Quantile(0.50) / 1e6;
    row.p95_ms = state.latency_ns.Quantile(0.95) / 1e6;
    row.p99_ms = state.latency_ns.Quantile(0.99) / 1e6;
    row.p999_ms = state.latency_ns.Quantile(0.999) / 1e6;
  });
  std::sort(rows.begin(), rows.end(), [](const TypeRow& a, const TypeRow& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.type < b.type;
  });
}

void LiveAggregator::StageRowsInto(std::vector<StageRow>& rows) const {
  rows.resize(by_stage_.size());
  size_t i = 0;
  by_stage_.ForEach([&](SymId id, const StageState& state) {
    StageRow& row = rows[i++];
    row.stage.assign(syms_->Name(id));
    row.spans = state.spans;
    row.busy_ms = static_cast<double>(state.busy_ns) / 1e6;
  });
  // Busy-descending with a name tiebreak: iteration order above is
  // first-seen order, which differs across shards, so the tiebreak
  // keeps the view deterministic.
  std::sort(rows.begin(), rows.end(), [](const StageRow& a, const StageRow& b) {
    if (a.busy_ms != b.busy_ms) {
      return a.busy_ms > b.busy_ms;
    }
    return a.stage < b.stage;
  });
}

std::string LiveAggregator::TagName(uint64_t tag) const {
  if (tag < tag_names_.size() && tag_names_[tag].has_value()) {
    return *tag_names_[tag];
  }
  return "tag_" + std::to_string(tag);
}

void LiveAggregator::CrosstalkRowsInto(std::vector<PairRow>& rows) const {
  // Fold tag pairs into named-type pairs: many tags (one per context
  // snapshot) map to one transaction type.
  std::map<std::pair<std::string, std::string>, util::RunningStat> folded;
  for (const auto& [pair, stat] : waits_) {
    folded[{TagName(pair.first), TagName(pair.second)}].Merge(stat);
  }
  rows.resize(folded.size());
  size_t i = 0;
  for (const auto& [names, stat] : folded) {
    PairRow& row = rows[i++];
    row.waiter.assign(names.first);
    row.holder.assign(names.second);
    row.count = stat.count();
    row.mean_wait_ms = stat.mean() / 1e6;
  }
  std::sort(rows.begin(), rows.end(), [](const PairRow& a, const PairRow& b) {
    if (a.mean_wait_ms != b.mean_wait_ms) {
      return a.mean_wait_ms > b.mean_wait_ms;
    }
    if (a.waiter != b.waiter) {
      return a.waiter < b.waiter;
    }
    return a.holder < b.holder;
  });
}

void LiveAggregator::TopContextsInto(size_t n, std::vector<CtxtRow>& rows) const {
  rows.clear();
  for (context::NodeId ctxt = 0; ctxt < cost_by_ctxt_.size(); ++ctxt) {
    if (const std::optional<uint64_t>& cost = cost_by_ctxt_[ctxt]) {
      rows.push_back(CtxtRow{ctxt, *cost});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const CtxtRow& a, const CtxtRow& b) {
    if (a.cost_ns != b.cost_ns) {
      return a.cost_ns > b.cost_ns;
    }
    return a.ctxt < b.ctxt;
  });
  if (rows.size() > n) {
    rows.resize(n);
  }
}

std::vector<LiveAggregator::AttrRow> LiveAggregator::AttrRows() const {
  std::vector<AttrRow> rows;
  by_type_.ForEach([&](SymId type, const TypeState& state) {
    for (const AttrCell& cell : state.attr_cells) {
      rows.push_back(AttrRow{TypeName(type), syms_->Name(cell.stage), cell.ctxt,
                             static_cast<WaitState>(cell.state), cell.ns});
    }
  });
  // Cells are in first-seen order; sort by name so the rows are
  // deterministic regardless of ingest or merge order. Interning is
  // injective, so no two rows tie on all four.
  std::sort(rows.begin(), rows.end(), [](const AttrRow& a, const AttrRow& b) {
    if (const int c = a.type.compare(b.type)) return c < 0;
    if (const int c = a.stage.compare(b.stage)) return c < 0;
    if (a.ctxt != b.ctxt) return a.ctxt < b.ctxt;
    return a.state < b.state;
  });
  return rows;
}

std::string LiveAggregator::ExportAttrFolded() const {
  // Fold contexts out, re-keying by name through an ordered map so the
  // output is deterministic no matter the intern order.
  std::map<std::tuple<std::string, std::string, uint8_t>, int64_t> folded;
  by_type_.ForEach([&](SymId type, const TypeState& state) {
    for (const AttrCell& cell : state.attr_cells) {
      folded[{TypeName(type), syms_->Name(cell.stage), cell.state}] += cell.ns;
    }
  });
  std::string out;
  for (const auto& [key, ns] : folded) {
    out += std::get<0>(key);
    out += ';';
    out += std::get<1>(key);
    out += ';';
    out += WaitStateName(static_cast<WaitState>(std::get<2>(key)));
    out += ' ';
    out += std::to_string(ns);
    out += '\n';
  }
  return out;
}

const util::LogHistogram* LiveAggregator::HistogramFor(std::string_view type) const {
  const util::LogHistogram* found = nullptr;
  by_type_.ForEach([&](SymId id, const TypeState& state) {
    if (found == nullptr && TypeName(id) == type) {
      found = &state.latency_ns;
    }
  });
  return found;
}

}  // namespace whodunit::obs::live
