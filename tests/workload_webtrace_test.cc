// Tests for the synthetic Rice-like web trace (paper §8, §9.2).
#include "src/workload/webtrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace whodunit::workload {
namespace {

// One connection's objects in a fresh buffer.
std::vector<uint32_t> Draw(const WebTrace& trace, util::Rng& rng) {
  std::vector<uint32_t> objects;
  trace.DrawConnection(rng, objects);
  return objects;
}

TEST(WebTraceTest, ConnectionLengthsHaveConfiguredMean) {
  WebTrace trace;
  util::Rng rng(101);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(Draw(trace, rng).size());
  }
  EXPECT_NEAR(total / n, kRequestsPerConnectionMean, 0.3);
}

TEST(WebTraceTest, EveryConnectionHasAtLeastOneRequest) {
  WebTrace trace;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(Draw(trace, rng).size(), 1u);
  }
}

TEST(WebTraceTest, PopularitySkewed) {
  WebTrace trace;
  util::Rng rng(13);
  std::map<uint32_t, int> counts;
  int total = 0;
  for (int i = 0; i < 5000; ++i) {
    for (uint32_t obj : Draw(trace, rng)) {
      ++counts[obj];
      ++total;
    }
  }
  // Top-100 objects (of 20,000) dominate a Zipf-0.85 stream.
  std::vector<int> sorted;
  sorted.reserve(counts.size());
  for (const auto& [obj, c] : counts) {
    sorted.push_back(c);
  }
  std::sort(sorted.rbegin(), sorted.rend());
  int top100 = 0;
  for (size_t i = 0; i < 100 && i < sorted.size(); ++i) {
    top100 += sorted[i];
  }
  EXPECT_GT(static_cast<double>(top100) / total, 0.25);
}

TEST(WebTraceTest, ObjectSizesHeavyTailed) {
  WebTrace trace;
  uint64_t max_seen = 0;
  double total = 0;
  const uint32_t n = 20000;
  for (uint32_t obj = 0; obj < n; ++obj) {
    const uint64_t bytes = trace.ObjectBytes(obj);
    EXPECT_GE(bytes, kTraceMinObjectBytes);
    EXPECT_LE(bytes, kTraceMaxObjectBytes);
    max_seen = std::max(max_seen, bytes);
    total += static_cast<double>(bytes);
  }
  const double mean = total / n;
  // Heavy tail: the max object is far above the mean.
  EXPECT_GT(static_cast<double>(max_seen), 20 * mean);
  // But the mean stays in the "typical web object" range.
  EXPECT_GT(mean, 2000);
  EXPECT_LT(mean, 50000);
}

TEST(WebTraceTest, SizesDeterministicPerObject) {
  WebTrace a, b;
  for (uint32_t obj : {0u, 1u, 99u, 19999u}) {
    EXPECT_EQ(a.ObjectBytes(obj), b.ObjectBytes(obj));
  }
}

TEST(WebTraceTest, DrawsDeterministicForSeed) {
  WebTrace trace;
  util::Rng r1(5), r2(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Draw(trace, r1), Draw(trace, r2));
  }
}

TEST(WebTraceTest, DrawAppendsToTheCallersBuffer) {
  WebTrace trace;
  util::Rng r1(5), r2(5);
  std::vector<uint32_t> objects = {7};
  trace.DrawConnection(r1, objects);
  const std::vector<uint32_t> fresh = Draw(trace, r2);
  ASSERT_EQ(objects.size(), fresh.size() + 1);
  EXPECT_EQ(objects.front(), 7u);
  EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(), objects.begin() + 1));
}

TEST(WebTraceTest, CustomModelRespected) {
  WebTraceModel model;
  model.objects = 10;
  model.requests_per_connection_mean = 2;
  WebTrace trace(model);
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    for (uint32_t obj : Draw(trace, rng)) {
      EXPECT_LT(obj, 10u);
    }
  }
}

}  // namespace
}  // namespace whodunit::workload
