#include "src/obs/live/attribution.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace whodunit::obs::live {
namespace {

// End of a child list.
constexpr uint32_t kNoSpan = ~uint32_t{0};

// Ranks every id of `syms` by name.
void RankSymbols(const SymbolTable& syms, AttrScratch& scratch) {
  scratch.ranked_table = &syms;
  scratch.ranked_size = syms.size();
  const size_t n = scratch.ranked_size;
  std::vector<SymId>& by_name = scratch.sym_of_rank;
  by_name.resize(n);
  for (size_t id = 0; id < n; ++id) {
    by_name[id] = static_cast<SymId>(id);
  }
  std::sort(by_name.begin(), by_name.end(),
            [&syms](SymId a, SymId b) { return syms.Name(a) < syms.Name(b); });
  scratch.rank_of.resize(n);
  for (size_t rank = 0; rank < n; ++rank) {
    scratch.rank_of[by_name[rank]] = static_cast<uint32_t>(rank);
  }
}

// A raw slice's fold key: (stage rank, ctxt, state) packed so integer
// order is the output order. A table holds at most 2^20 symbols, so
// the rank fits its 24 bits.
uint64_t SliceKey(uint32_t rank, context::NodeId ctxt, WaitState state) {
  return (uint64_t{rank} << 40) | (uint64_t{ctxt} << 8) | static_cast<uint8_t>(state);
}

}  // namespace

void AttributeTxn(const TxnEvent& event, const SymbolTable& syms,
                  AttrScratch& scratch, AttrVec& out) {
  out.clear();
  if (event.spans.empty() || event.end_ns <= event.start_ns) return;
  const size_t n = event.spans.size();

  // Rank stages once per table so slice ordering below is pure
  // integer work: rank order IS name order — the determinism contract
  // the exports rely on. An id outside the table resolves to "", as
  // id 0.
  if (&syms != scratch.ranked_table || syms.size() != scratch.ranked_size) {
    RankSymbols(syms, scratch);
  }

  // One reverse pass over the spans builds the tree: each span's child
  // list (first_child / next_sibling, in index order), its subtree end
  // (children carry larger indices, so a span's is final before its
  // parent is reached) and its stage rank. The daemon appends spans in
  // join order, so index order is a stable tiebreak for equal starts.
  // Spans with no recorded parent (beyond the origin) are grafted onto
  // the origin so every nanosecond stays reachable from the root walk.
  scratch.first_child.assign(n, kNoSpan);
  scratch.next_sibling.resize(n);
  scratch.subtree_end.assign(n, std::numeric_limits<int64_t>::min());
  scratch.span_rank.resize(n);
  uint32_t* const first = scratch.first_child.data();
  uint32_t* const next = scratch.next_sibling.data();
  int64_t* const subtree_end = scratch.subtree_end.data();
  uint32_t* const span_rank = scratch.span_rank.data();
  bool in_start_order = true;
  for (size_t i = n; i-- > 0;) {
    const StageSpan& s = event.spans[i];
    subtree_end[i] = std::max(subtree_end[i], s.start_ns + s.duration_ns);
    span_rank[i] = scratch.rank_of[s.stage < scratch.rank_of.size() ? s.stage : 0];
    if (i == 0) {
      break;
    }
    const size_t p = (s.parent < 0 || static_cast<size_t>(s.parent) >= i)
                         ? 0
                         : static_cast<size_t>(s.parent);
    subtree_end[p] = std::max(subtree_end[p], subtree_end[i]);
    if (first[p] != kNoSpan && event.spans[first[p]].start_ns < s.start_ns) {
      in_start_order = false;
    }
    next[i] = first[p];
    first[p] = static_cast<uint32_t>(i);
  }
  if (!in_start_order) {
    // Spans join in time order in the common case; only when a sibling
    // arrived out of order are the lists re-linked in start order.
    std::vector<uint32_t>& kids = scratch.child_idx;
    for (size_t p = 0; p < n; ++p) {
      kids.clear();
      for (uint32_t c = first[p]; c != kNoSpan; c = next[c]) {
        kids.push_back(c);
      }
      std::stable_sort(kids.begin(), kids.end(), [&](uint32_t a, uint32_t b) {
        return event.spans[a].start_ns < event.spans[b].start_ns;
      });
      uint32_t head = kNoSpan;
      for (size_t k = kids.size(); k-- > 0;) {
        next[kids[k]] = head;
        head = kids[k];
      }
      first[p] = head;
    }
  }

  // Unfolded slices carry packed (rank, ctxt, state) keys; symbols are
  // resolved back once per output bucket at the end.
  std::vector<AttrScratch::RawSlice>& raw = scratch.raw;
  raw.clear();
  const auto add = [&](size_t span, WaitState state, int64_t ns) {
    if (ns <= 0) return;
    const StageSpan& s = event.spans[span];
    const context::NodeId ctxt = s.ctxt != context::kEmptyContext ? s.ctxt : event.root_ctxt;
    raw.push_back({SliceKey(span_rank[span], ctxt, state), ns});
  };

  // Walk the critical path: span i owns the window [lo, hi). Intervals
  // where a child subtree is active are handed down to that child; the
  // gap before each child splits into the child's measured queue
  // residency, then CPU this span was measurably burning, then
  // downstream wait on the child tier. The tail after the last child
  // is the span's own time: measured CPU, then lock wait, then the
  // unmeasured remainder (disk, CPU queueing, scheduler).
  const auto attribute = [&](auto&& self, size_t i, int64_t lo,
                             int64_t hi) -> void {
    const StageSpan& s = event.spans[i];
    int64_t service_left = std::max<int64_t>(0, s.service_ns);
    const int64_t lock_left = std::max<int64_t>(0, s.lock_ns);
    int64_t cursor = lo;
    for (uint32_t child = first[i]; child != kNoSpan; child = next[child]) {
      const StageSpan& c = event.spans[child];
      const int64_t cs = std::clamp(c.start_ns, cursor, hi);
      const int64_t ce = std::clamp(subtree_end[child], cs, hi);
      int64_t gap = cs - cursor;
      const int64_t queued = std::min(std::max<int64_t>(0, c.queue_ns), gap);
      add(child, WaitState::kQueueWait, queued);
      gap -= queued;
      const int64_t burned = std::min(service_left, gap);
      add(i, WaitState::kService, burned);
      service_left -= burned;
      gap -= burned;
      add(i, WaitState::kDownstreamWait, gap);
      if (ce > cs) self(self, child, cs, ce);
      cursor = std::max(cursor, ce);
    }
    int64_t tail = hi - cursor;
    const int64_t burned = std::min(service_left, tail);
    add(i, WaitState::kService, burned);
    tail -= burned;
    const int64_t locked = std::min(lock_left, tail);
    add(i, WaitState::kLockWait, locked);
    tail -= locked;
    add(i, WaitState::kSchedOther, tail);
  };
  attribute(attribute, 0, event.start_ns, event.end_ns);

  // Fold to deterministically-ordered (stage, ctxt, state) buckets —
  // rank order IS name order, so this matches the pre-interning string
  // sort. The sort need not be stable: equal-key slices are summed, so
  // their relative order cannot show in the output.
  std::sort(raw.begin(), raw.end(),
            [](const AttrScratch::RawSlice& a, const AttrScratch::RawSlice& b) {
              return a.key < b.key;
            });
  out.reserve(raw.size());
  uint64_t last_key = 0;
  for (const AttrScratch::RawSlice& r : raw) {
    if (!out.empty() && r.key == last_key) {
      out.back().ns += r.ns;
    } else {
      out.push_back(AttrSlice{scratch.sym_of_rank[r.key >> 40],
                              static_cast<context::NodeId>(r.key >> 8),
                              static_cast<WaitState>(r.key & 0xff), r.ns});
      last_key = r.key;
    }
  }
}

}  // namespace whodunit::obs::live
