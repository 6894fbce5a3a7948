// Live transaction observability: online, streaming aggregation state.
//
// The LiveAggregator is the queryable core of the whodunitd daemon: it
// folds every completed TxnEvent into constant-size state — no sample
// retention — and answers the operator questions the paper's offline
// reports answer post mortem:
//
//   * per-transaction-type latency: mergeable log-bucketed histograms
//     (util::LogHistogram) giving p50/p95/p99 without storing samples;
//   * a live crosstalk matrix keyed by (waiter-type, holder-type),
//     fed by the lock observer's wait sink (src/crosstalk);
//   * top-N transaction contexts by cumulative CPU cost, keyed by
//     interned ContextTree NodeIds (flushed in batches from the
//     stage profilers' charge path);
//   * per-stage throughput / busy-time / error counters.
//
// All internal state is keyed by interned SymIds (symbol_table.h), so
// the per-event ingest fold is pure integer probes — no string hashing
// and no steady-state allocation. Ids are per-shard first-intern
// order, so every user-facing view (TypeRows, AttrRows,
// ExportAttrFolded) re-sorts by resolved name to stay deterministic
// across ingest interleavings and shard merge orders.
#ifndef SRC_OBS_LIVE_AGGREGATOR_H_
#define SRC_OBS_LIVE_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/context/context_tree.h"
#include "src/obs/live/symbol_table.h"
#include "src/obs/live/txn_event.h"
#include "src/obs/metrics.h"
#include "src/util/stats.h"

namespace whodunit::obs::live {

class LiveAggregator {
 public:
  // ---- Ingest (daemon side) -----------------------------------------
  // Folds completed events in order. The pump hands over a whole batch
  // at once: the tables stay hot across it and the ingest counters are
  // bumped once per call.
  void Ingest(std::span<const TxnEvent> events);
  void Ingest(const TxnEvent& event) { Ingest(std::span<const TxnEvent>(&event, 1)); }
  // Cumulative CPU cost charged under an interned transaction context.
  void AddCost(context::NodeId ctxt, uint64_t cost_ns);
  // Names a crosstalk tag (profiler context id) with a transaction
  // type; the first name a tag gets sticks, and unnamed tags render as
  // "tag_<id>". Tags are a stage's small dense context ids: the names
  // sit in a flat table indexed by tag, so naming a named tag again is
  // one load.
  void NameTag(uint64_t tag, std::string_view name);
  // One observed lock wait: `waiter` blocked behind `holder`.
  void IngestWait(uint64_t waiter_tag, uint64_t holder_tag, uint64_t wait_ns);

  // ---- Queries -------------------------------------------------------
  // The *Into variants refill caller-owned rows in place (string and
  // vector capacity is reused) so a refreshing poller — whodunit_top —
  // is allocation-quiet once warm.
  struct TypeRow {
    std::string type;
    uint64_t count = 0;
    uint64_t errors = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    double p999_ms = 0;
  };
  // Per-type latency rows, highest count first.
  void TypeRowsInto(std::vector<TypeRow>& rows) const;
  std::vector<TypeRow> TypeRows() const {
    std::vector<TypeRow> rows;
    TypeRowsInto(rows);
    return rows;
  }

  struct StageRow {
    std::string stage;
    uint64_t spans = 0;
    double busy_ms = 0;
  };
  void StageRowsInto(std::vector<StageRow>& rows) const;
  std::vector<StageRow> StageRows() const {
    std::vector<StageRow> rows;
    StageRowsInto(rows);
    return rows;
  }

  struct PairRow {
    std::string waiter;
    std::string holder;
    uint64_t count = 0;
    double mean_wait_ms = 0;
  };
  // Live crosstalk matrix, heaviest mean wait first.
  void CrosstalkRowsInto(std::vector<PairRow>& rows) const;
  std::vector<PairRow> CrosstalkRows() const {
    std::vector<PairRow> rows;
    CrosstalkRowsInto(rows);
    return rows;
  }

  struct CtxtRow {
    context::NodeId ctxt = context::kEmptyContext;
    uint64_t cost_ns = 0;
  };
  // The n most expensive transaction contexts by cumulative cost.
  void TopContextsInto(size_t n, std::vector<CtxtRow>& rows) const;
  std::vector<CtxtRow> TopContexts(size_t n) const {
    std::vector<CtxtRow> rows;
    TopContextsInto(n, rows);
    return rows;
  }

  // Cumulative critical-path wait-state cost per (txn-type, stage,
  // context, state), from the attribution slices riding each ingested
  // event (attribution.h). Deterministically ordered.
  struct AttrRow {
    std::string type;
    std::string stage;
    context::NodeId ctxt = context::kEmptyContext;
    WaitState state = WaitState::kSchedOther;
    int64_t ns = 0;
  };
  std::vector<AttrRow> AttrRows() const;
  // Folded-stack flamegraph lines (whodunit-attr-v1,
  // docs/PROFILE_FORMAT.md): "type;stage;state <ns>\n", contexts
  // folded out, deterministic order.
  std::string ExportAttrFolded() const;

  const util::LogHistogram* HistogramFor(std::string_view type) const;
  uint64_t txns() const { return txns_; }
  uint64_t errors() const { return errors_; }

  // The symbol table this aggregator's SymIds resolve through (the
  // thread-current table at construction).
  const SymbolTable& syms() const { return *syms_; }

  // Folds another aggregator (a shard's) into this one. `ctxt_remap`
  // translates the other aggregator's ContextTree NodeIds into this
  // side's tree (the vector ContextTree::MergeFrom returns); the other
  // side's SymIds are remapped through SymbolTable::MergeFrom the same
  // way. The other side's crosstalk tags — arbitrary per-shard ids —
  // are re-based onto fresh ids here so distinct shard contexts never
  // collide; their names carry over, so name-folded views (the
  // crosstalk matrix) merge exactly. Deterministic given a fixed
  // merge order.
  void MergeFrom(const LiveAggregator& other, const std::vector<context::NodeId>& ctxt_remap);

 private:
  // One critical-path bucket of a transaction type: (stage, ctxt,
  // state) and its cumulative ns. A type's cells that share (stage,
  // state) chain through `next`, newest first.
  static constexpr uint32_t kNoCell = ~uint32_t{0};
  struct AttrCell {
    SymId stage = 0;
    context::NodeId ctxt = context::kEmptyContext;
    uint8_t state = 0;
    uint32_t next = kNoCell;
    int64_t ns = 0;
  };
  struct TypeState {
    util::LogHistogram latency_ns;
    uint64_t errors = 0;
    // The type's attribution table: attr_head[stage * kWaitStateCount
    // + state] is the newest cell of that chain. Folding a slice is an
    // index plus a ctxt compare per chain link — no hashing.
    std::vector<uint32_t> attr_head;
    std::vector<AttrCell> attr_cells;
  };
  struct StageState {
    uint64_t spans = 0;
    uint64_t busy_ns = 0;
  };

  // Per-symbol state behind a dense SymId -> slot index. SymIds are
  // small and dense per table, so the index is a plain vector and a
  // probe is one load; the states themselves sit packed in first-seen
  // order (a TypeState is a 4 KB histogram, too big for hash slots).
  template <typename State>
  class SymSlots {
   public:
    State& operator[](SymId id) {
      if (id >= slot_of_.size()) {
        slot_of_.resize(static_cast<size_t>(id) + 1, kNoSlot);
      }
      uint32_t& slot = slot_of_[id];
      if (slot == kNoSlot) {
        slot = static_cast<uint32_t>(states_.size());
        ids_.push_back(id);
        states_.emplace_back();
      }
      return states_[slot];
    }
    size_t size() const { return states_.size(); }
    // fn(SymId, const State&) per seen symbol, first-seen order.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (size_t i = 0; i < states_.size(); ++i) {
        fn(ids_[i], states_[i]);
      }
    }

   private:
    static constexpr uint32_t kNoSlot = ~uint32_t{0};
    std::vector<uint32_t> slot_of_;
    std::vector<SymId> ids_;
    std::vector<State> states_;
  };

  // The (stage, ctxt, state) cell of `type`'s attribution table,
  // created at 0 ns the first time it is seen.
  static int64_t& AttrNs(TypeState& type, SymId stage, context::NodeId ctxt, uint8_t state);
  // The cost cell of `ctxt`, created at 0 the first time it is seen.
  uint64_t& CostOf(context::NodeId ctxt);
  std::string TagName(uint64_t tag) const;
  // Resolves a type SymId for display: id 0 renders as "(untyped)".
  const std::string& TypeName(SymId id) const;

  // Flat tables keyed by interned SymIds: per-event ingest is integer
  // probes, and storage only grows the first time a key is seen —
  // steady-state ingest never allocates. Iteration order is first-seen
  // order, which no view depends on: every view re-sorts by name.
  SymSlots<TypeState> by_type_;
  SymSlots<StageState> by_stage_;
  std::map<std::pair<uint64_t, uint64_t>, util::RunningStat> waits_;
  // tag -> its name, nullopt while unnamed; sized to the largest named
  // tag + 1.
  std::vector<std::optional<std::string>> tag_names_;
  // NodeId -> cumulative cost, nullopt for a context never charged nor
  // seen as a root. NodeIds are dense ContextTree indices, so this is
  // a flat table: an event whose root context is present pays one
  // load.
  std::vector<std::optional<uint64_t>> cost_by_ctxt_;
  uint64_t txns_ = 0;
  uint64_t errors_ = 0;
  // Bound at construction (shard-registry rule): an aggregator built
  // inside a shard isolate reports into that shard's metrics registry
  // and resolves names through that shard's symbol table.
  SymbolTable* syms_ = &Syms();
  Counter* obs_txns_ = &Registry().GetCounter("live.txns_ingested");
  Counter* obs_spans_ = &Registry().GetCounter("live.spans_ingested");
  Counter* obs_waits_ = &Registry().GetCounter("live.crosstalk_waits");
  Counter* obs_attr_txns_ = &Registry().GetCounter("live.attr.txns_attributed");
  Counter* obs_attr_slices_ = &Registry().GetCounter("live.attr.slices");
};

}  // namespace whodunit::obs::live

#endif  // SRC_OBS_LIVE_AGGREGATOR_H_
