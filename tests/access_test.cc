#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "access/access_interface.h"
#include "access/rate_limiter.h"
#include "graph/generators.h"
#include "test_util.h"

namespace wnw {
namespace {

TEST(FlatNodeMapTest, FindEmplaceGrowAndClear) {
  FlatNodeMap<std::vector<NodeId>> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);

  // Insert enough entries to force several growths; spans into each stored
  // vector's heap buffer must survive them (that's the documented contract
  // the session caches rely on).
  std::vector<std::span<const NodeId>> views;
  for (NodeId key = 0; key < 200; ++key) {
    std::vector<NodeId> value = {key, key + 1, key + 2};
    views.push_back(map.Emplace(key, std::move(value)));
  }
  EXPECT_EQ(map.size(), 200u);
  for (NodeId key = 0; key < 200; ++key) {
    ASSERT_EQ(views[key].size(), 3u);
    EXPECT_EQ(views[key][0], key);  // heap buffer survived table growth
    const std::vector<NodeId>* found = map.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ((*found)[2], key + 2);
  }
  EXPECT_FALSE(map.Contains(200));

  // Emplace mirrors unordered_map::emplace — no overwrite of an entry.
  std::vector<NodeId> other = {99};
  EXPECT_EQ(map.Emplace(0, std::move(other)).size(), 3u);

  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(0), nullptr);
  map.Emplace(5, {42});
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(map.Find(5)->front(), 42u);
}

TEST(AccessTest, NeighborsMatchGraph) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  const auto nbrs = access.Neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()),
            (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(access.Degree(2), 3u);
}

TEST(AccessTest, UniqueCostCountsDistinctNodes) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  EXPECT_EQ(access.query_cost(), 0u);
  access.Neighbors(0);
  access.Neighbors(0);
  access.Neighbors(1);
  EXPECT_EQ(access.query_cost(), 2u);    // nodes {0, 1}
  EXPECT_EQ(access.total_queries(), 3u); // three invocations
  EXPECT_TRUE(access.Seen(0));
  EXPECT_FALSE(access.Seen(4));
}

TEST(AccessTest, ResetCountersClears) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  access.Neighbors(0);
  access.ResetCounters();
  EXPECT_EQ(access.query_cost(), 0u);
  EXPECT_EQ(access.total_queries(), 0u);
  EXPECT_FALSE(access.Seen(0));
}

// EffectiveNeighbors keeps its last two answers next to the session caches.
// A repeat must still bill a logical query, and ResetCounters must drop the
// kept answers with the caches, so a re-query pays distinct-node cost and a
// backend fetch again — on every kind of view.
TEST(AccessTest, RecentAnswersBillAndResetLikeTheCache) {
  const Graph g = testing::MakeTestBA(60, 3);
  AccessOptions fixed_checked;
  fixed_checked.restriction = NeighborRestriction::kFixedSubset;
  fixed_checked.max_neighbors = 4;
  fixed_checked.bidirectional_check = true;
  AccessOptions truncated;
  truncated.restriction = NeighborRestriction::kTruncated;
  truncated.max_neighbors = 4;
  truncated.bidirectional_check = false;
  const struct {
    AccessOptions opts;
    bool symmetric;
  } kViews[] = {{AccessOptions{}, true}, {fixed_checked, true},
                {truncated, false}};
  for (const auto& view : kViews) {
    SCOPED_TRACE(static_cast<int>(view.opts.restriction));
    AccessInterface access(&g, view.opts);
    EXPECT_EQ(access.symmetric_view(), view.symmetric);
    const auto first = access.EffectiveNeighbors(0);
    const std::vector<NodeId> list(first.begin(), first.end());
    const CostMeter billed = access.meter();
    EXPECT_GE(billed.unique_cost, 1u);
    EXPECT_GE(billed.backend_fetches, 1u);
    auto expect_repeat_of_0 = [&] {
      const uint64_t queries = access.total_queries();
      const uint64_t cost = access.query_cost();
      const uint64_t fetches = access.meter().backend_fetches;
      const auto again = access.EffectiveNeighbors(0);
      EXPECT_EQ(std::vector<NodeId>(again.begin(), again.end()), list);
      EXPECT_EQ(access.total_queries(), queries + 1);
      EXPECT_EQ(access.query_cost(), cost);
      EXPECT_EQ(access.meter().backend_fetches, fetches);
    };
    // Node 0 from the newest slot, from the older one, and after it has
    // left both: each repeat bills one query and nothing else.
    expect_repeat_of_0();
    access.EffectiveNeighbors(1);
    expect_repeat_of_0();
    access.EffectiveNeighbors(2);
    access.EffectiveNeighbors(3);
    expect_repeat_of_0();

    access.ResetCounters();
    EXPECT_EQ(access.total_queries(), 0u);
    EXPECT_EQ(access.query_cost(), 0u);
    const auto fresh = access.EffectiveNeighbors(0);
    EXPECT_EQ(std::vector<NodeId>(fresh.begin(), fresh.end()), list);
    EXPECT_EQ(access.query_cost(), billed.unique_cost);
    EXPECT_EQ(access.meter().backend_fetches, billed.backend_fetches);
    EXPECT_EQ(access.total_queries(), billed.total_queries);
    expect_repeat_of_0();
  }
}

TEST(AccessTest, SampleNeighborUniform) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  Rng rng(1);
  std::vector<int> counts(5, 0);
  constexpr int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) counts[access.SampleNeighbor(0, rng)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[4], 0);
  for (NodeId v : {1u, 2u, 3u}) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / kDraws, 1.0 / 3.0, 0.02);
  }
}

TEST(AccessTest, IsolatedNodeSampleReturnsInvalid) {
  GraphBuilder b(2);
  const Graph g = std::move(b).Build().value();
  AccessInterface access(&g);
  Rng rng(2);
  EXPECT_EQ(access.SampleNeighbor(0, rng), kInvalidNode);
}

TEST(AccessRandomSubsetTest, ReturnsAtMostK) {
  const Graph g = MakeStar(50).value();  // center degree 49
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kRandomSubset;
  opts.max_neighbors = 10;
  AccessInterface access(&g, opts);
  EXPECT_EQ(access.Neighbors(0).size(), 10u);
  // Leaves are below the cap: full list.
  EXPECT_EQ(access.Neighbors(1).size(), 1u);
}

TEST(AccessRandomSubsetTest, VariesAcrossCalls) {
  const Graph g = MakeStar(200).value();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kRandomSubset;
  opts.max_neighbors = 5;
  AccessInterface access(&g, opts);
  std::set<std::vector<NodeId>> observed;
  for (int i = 0; i < 10; ++i) {
    const auto nbrs = access.Neighbors(0);
    observed.emplace(nbrs.begin(), nbrs.end());
  }
  EXPECT_GT(observed.size(), 1u);  // type 1: fresh subsets per invocation
}

TEST(AccessFixedSubsetTest, StableAcrossCalls) {
  const Graph g = MakeStar(200).value();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kFixedSubset;
  opts.max_neighbors = 5;
  AccessInterface access(&g, opts);
  const auto first = access.Neighbors(0);
  const std::vector<NodeId> snapshot(first.begin(), first.end());
  for (int i = 0; i < 5; ++i) {
    const auto again = access.Neighbors(0);
    EXPECT_EQ(std::vector<NodeId>(again.begin(), again.end()), snapshot);
  }
}

TEST(AccessFixedSubsetTest, DeterministicAcrossSessions) {
  const Graph g = MakeStar(200).value();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kFixedSubset;
  opts.max_neighbors = 5;
  opts.seed = 77;
  AccessInterface a(&g, opts), b(&g, opts);
  const auto na = a.Neighbors(0);
  const auto nb = b.Neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(na.begin(), na.end()),
            std::vector<NodeId>(nb.begin(), nb.end()));
}

TEST(AccessTruncatedTest, ReturnsPrefix) {
  const Graph g = MakeStar(50).value();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kTruncated;
  opts.max_neighbors = 3;
  AccessInterface access(&g, opts);
  const auto nbrs = access.Neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()),
            (std::vector<NodeId>{1, 2, 3}));
}

TEST(AccessTruncatedTest, BidirectionalCheckFiltersAsymmetricEdges) {
  // Star center truncated to 3 of its 49 leaves; leaves always see the
  // center. Effective neighbors of the center are exactly its visible 3.
  const Graph g = MakeStar(50).value();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kTruncated;
  opts.max_neighbors = 3;
  opts.bidirectional_check = true;
  AccessInterface access(&g, opts);
  EXPECT_EQ(access.EffectiveNeighbors(0).size(), 3u);
  // A leaf outside the center's truncated list: the center does not list it,
  // so the mutual check removes its only edge.
  EXPECT_EQ(access.EffectiveNeighbors(30).size(), 0u);
  // A leaf inside the center's list keeps the edge.
  EXPECT_EQ(access.EffectiveNeighbors(1).size(), 1u);
}

TEST(AccessTruncatedTest, UntruncatedGraphUnaffected) {
  const Graph g = testing::MakeTestBA(60, 3);
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kTruncated;
  opts.max_neighbors = 1000;  // above every degree
  AccessInterface access(&g, opts);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto eff = access.EffectiveNeighbors(u);
    const auto full = g.Neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(eff.begin(), eff.end()),
              std::vector<NodeId>(full.begin(), full.end()));
  }
}

TEST(AccessTruncatedTest, EffectiveViewIsSymmetric) {
  const Graph g = testing::MakeTestBA(80, 4);
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kFixedSubset;
  opts.max_neighbors = 4;
  opts.bidirectional_check = true;
  AccessInterface access(&g, opts);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : access.EffectiveNeighbors(u)) {
      const auto back = access.EffectiveNeighbors(v);
      EXPECT_TRUE(std::find(back.begin(), back.end(), u) != back.end())
          << "edge (" << u << "," << v << ") not mutual";
    }
  }
}

TEST(MarkRecaptureTest, ExactWhenNotTruncated) {
  const Graph g = testing::MakeHouseGraph();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kRandomSubset;
  opts.max_neighbors = 10;
  AccessInterface access(&g, opts);
  EXPECT_DOUBLE_EQ(EstimateDegreeMarkRecapture(access, 0, 4), 3.0);
}

TEST(MarkRecaptureTest, EstimatesTruncatedDegree) {
  const Graph g = MakeStar(201).value();  // center degree 200
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kRandomSubset;
  opts.max_neighbors = 40;
  AccessInterface access(&g, opts);
  const double est = EstimateDegreeMarkRecapture(access, 0, 30);
  EXPECT_NEAR(est, 200.0, 30.0);
}

TEST(RateLimiterTest, DisabledByDefault) {
  SimulatedRateLimiter limiter;
  EXPECT_FALSE(limiter.enabled());
  for (int i = 0; i < 100; ++i) limiter.OnQuery();
  EXPECT_DOUBLE_EQ(limiter.waited_seconds(), 0.0);
  EXPECT_EQ(limiter.total_queries(), 100u);
}

TEST(RateLimiterTest, WaitsBetweenWindows) {
  // Twitter-style: 15 queries per 900 s window.
  SimulatedRateLimiter limiter({15, 900.0});
  for (int i = 0; i < 15; ++i) limiter.OnQuery();
  EXPECT_DOUBLE_EQ(limiter.waited_seconds(), 0.0);
  limiter.OnQuery();  // 16th query crosses into the next window
  EXPECT_DOUBLE_EQ(limiter.waited_seconds(), 900.0);
  for (int i = 0; i < 14; ++i) limiter.OnQuery();
  EXPECT_DOUBLE_EQ(limiter.waited_seconds(), 900.0);
  limiter.OnQuery();
  EXPECT_DOUBLE_EQ(limiter.waited_seconds(), 1800.0);
}

TEST(RateLimiterTest, ResetRestoresTokens) {
  SimulatedRateLimiter limiter({2, 10.0});
  limiter.OnQuery();
  limiter.OnQuery();
  limiter.Reset();
  limiter.OnQuery();
  EXPECT_DOUBLE_EQ(limiter.waited_seconds(), 0.0);
}

TEST(AccessTest, RateLimitAccounting) {
  const Graph g = MakeCycle(100).value();
  AccessOptions opts;
  opts.rate_limit = {10, 60.0};
  AccessInterface access(&g, opts);
  for (NodeId u = 0; u < 25; ++u) access.Neighbors(u);
  // 25 unique queries with 10 per minute: 2 full waits.
  EXPECT_DOUBLE_EQ(access.waited_seconds(), 120.0);
  // Cache hits are free: re-visiting does not wait.
  for (NodeId u = 0; u < 25; ++u) access.Neighbors(u);
  EXPECT_DOUBLE_EQ(access.waited_seconds(), 120.0);
}

}  // namespace
}  // namespace wnw
