#include "src/sim/ladder_queue.h"

#include <algorithm>
#include <bit>

namespace whodunit::sim {

LadderQueue::Rung& LadderQueue::SpawnRung(SimTime origin, SimTime limit,
                                          size_t events) {
  Rung& r = rungs_[live_rungs_++];
  r.origin = origin;
  r.limit = limit;
  const auto span = static_cast<uint64_t>(limit - origin);  // >= 1 by construction
  const uint64_t want = std::clamp<size_t>(events / kBucketTarget, 1, kMaxBuckets);
  // The narrowest power-of-two width that needs at most `want` buckets.
  r.shift = std::bit_width((span + want - 1) / want - 1);
  r.buckets.resize(static_cast<size_t>(((span - 1) >> r.shift) + 1));
  r.cur = 0;
  // The new rung is the finest tier above bottom: bottom's region now
  // ends where the rung begins.
  bottom_limit_ = origin;
  ++stats_.promotions;
  return r;
}

void LadderQueue::SpillBottom() {
  if (live_rungs_ == kMaxRungs) {
    return;  // graceful degradation: let bottom grow, stay correct
  }
  // bottom_[0, spill) are the latest keys; the earliest of them starts
  // the region bottom hands over. (Kept keys at that same time have
  // smaller seqs and drain before the new tier is touched, so (time,
  // seq) order is preserved.)
  const size_t spill = bottom_.size() - kBottomKeep;
  const SimTime limit = bottom_[spill - 1].time;
  if (bottom_limit_ == kVirginLimit) {
    // No structure above bottom yet: the spilled keys become the top
    // tier and bottom's responsibility shrinks to [0, limit).
    bottom_limit_ = limit;
    for (size_t i = 0; i < spill; ++i) {
      AppendTop(bottom_[i]);
    }
  } else {
    // A tier already bounds the range at bottom_limit_; slot a rung
    // covering exactly [limit, bottom_limit_) between bottom and it.
    Rung& r = SpawnRung(limit, bottom_limit_, spill);
    for (size_t i = 0; i < spill; ++i) {
      AddToRung(r, bottom_[i]);
    }
  }
  bottom_.erase(bottom_.begin(), bottom_.begin() + static_cast<ptrdiff_t>(spill));
}

void LadderQueue::EnsureBottom() {
  while (bottom_.empty()) {
    if (live_rungs_ > 0) {
      Rung& r = rungs_[live_rungs_ - 1];
      while (r.cur < r.buckets.size() && r.buckets[r.cur].empty()) {
        ++r.cur;
      }
      if (r.cur == r.buckets.size()) {
        --live_rungs_;
        continue;
      }
      const size_t b = r.cur++;
      std::vector<EventKey>& bucket = r.buckets[b];
      const SimTime bs = r.origin + (static_cast<SimTime>(b) << r.shift);
      const SimTime be = std::min(bs + (SimTime{1} << r.shift), r.limit);
      if (bucket.size() > kSortMax && r.shift > 0 && live_rungs_ < kMaxRungs) {
        // Over-full bucket: subdivide into a finer rung instead of
        // paying a big sort. Terminates because the child's buckets
        // are strictly narrower (shift > 0 here).
        Rung& child = SpawnRung(bs, be, bucket.size());
        for (const EventKey& key : bucket) {
          AddToRung(child, key);
        }
      } else {
        bottom_.assign(bucket.begin(), bucket.end());
        std::sort(bottom_.begin(), bottom_.end(), Later);
        bottom_limit_ = be;
        ++stats_.refills;
      }
      bucket.clear();
      if (bucket.capacity() > kBucketKeep) {
        // A burst's worth of capacity goes back to the allocator, so
        // recycled rungs stay as small as the steady state needs.
        std::vector<EventKey>().swap(bucket);
      }
      continue;
    }
    if (!top_.empty()) {
      Rung& r = SpawnRung(top_min_, top_max_ + 1, top_.size());
      for (const EventKey& key : top_) {
        AddToRung(r, key);
      }
      top_.clear();
      continue;
    }
    // Fully drained: return to the virgin state where bottom owns the
    // whole time axis again.
    bottom_limit_ = kVirginLimit;
    return;
  }
}

}  // namespace whodunit::sim
