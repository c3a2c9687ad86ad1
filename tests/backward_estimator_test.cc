// Unbiasedness of UNBIASED-ESTIMATE / WS-BW against exact matrix powers —
// the core correctness property of the paper's ESTIMATE component.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/backward_estimator.h"
#include "core/crawler.h"
#include "mcmc/distribution.h"
#include "mcmc/transition.h"
#include "mcmc/walker.h"
#include "test_util.h"

namespace wnw {
namespace {

// Monte-Carlo mean of EstimateOnce with a z-test-style tolerance derived
// from the empirical spread.
struct McResult {
  double mean = 0.0;
  double stderr_mean = 0.0;
};

McResult MonteCarloMean(const BackwardEstimator& estimator,
                        AccessInterface& access, NodeId u, int t, int reps,
                        uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0, sq = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double x = estimator.EstimateOnce(access, u, t, rng);
    sum += x;
    sq += x * x;
  }
  McResult out;
  out.mean = sum / reps;
  const double var = std::max(0.0, sq / reps - out.mean * out.mean);
  out.stderr_mean = std::sqrt(var / reps);
  return out;
}

class UnbiasednessTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(UnbiasednessTest, PlainEstimatorMatchesExactPt) {
  const auto [spec, t] = GetParam();
  const Graph g = testing::MakeTestBA(40, 3);
  auto design = MakeTransitionDesign(spec);
  const auto tm = TransitionMatrix::Build(g, *design);
  const NodeId start = 0;
  const auto exact = ExactStepDistribution(tm, start, t);
  AccessInterface access(&g);
  const BackwardEstimator estimator(design.get(), start);

  // Check a hub, a mid-degree node, and a leaf-ish node.
  std::vector<NodeId> probes{0, 5, 20, 39};
  for (NodeId u : probes) {
    const auto mc = MonteCarloMean(estimator, access, u, t, 60000,
                                   1000 + u + static_cast<uint64_t>(t));
    EXPECT_NEAR(mc.mean, exact[u], 5.0 * mc.stderr_mean + 1e-5)
        << spec << " t=" << t << " u=" << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndLengths, UnbiasednessTest,
    ::testing::Combine(::testing::Values("srw", "mhrw", "lazy"),
                       ::testing::Values(1, 2, 4, 6)));

TEST(BackwardEstimatorTest, ExactAtTZero) {
  const Graph g = testing::MakeHouseGraph();
  SimpleRandomWalk srw;
  AccessInterface access(&g);
  const BackwardEstimator estimator(&srw, 2);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(estimator.EstimateOnce(access, 2, 0, rng), 1.0);
  EXPECT_DOUBLE_EQ(estimator.EstimateOnce(access, 0, 0, rng), 0.0);
}

TEST(BackwardEstimatorTest, SingleStepIsExactOnRegularGraph) {
  // On a k-regular graph the one-step SRW estimate is deterministic:
  // |N(u)|/|N(v)| = 1 and the indicator picks out the exact neighbor share.
  const Graph g = MakeRegularCirculant(10, 4).value();
  SimpleRandomWalk srw;
  AccessInterface access(&g);
  const BackwardEstimator estimator(&srw, 0);
  const auto tm = TransitionMatrix::Build(g, srw);
  const auto exact = ExactStepDistribution(tm, 0, 1);
  AccessInterface oracle(&g);
  const auto mc = MonteCarloMean(estimator, oracle, 1, 1, 40000, 7);
  EXPECT_NEAR(mc.mean, exact[1], 5.0 * mc.stderr_mean + 1e-4);
}

TEST(BackwardEstimatorTest, CrawlBallTerminationStaysUnbiased) {
  const Graph g = testing::MakeTestBA(40, 3);
  auto design = MakeTransitionDesign("srw");
  const auto tm = TransitionMatrix::Build(g, *design);
  const NodeId start = 3;
  const int t = 6;
  const auto exact = ExactStepDistribution(tm, start, t);
  AccessInterface access(&g);
  const CrawlBall ball = CrawlBall::Crawl(access, *design, start, 2);
  const BackwardEstimator estimator(design.get(), start, {}, &ball);
  for (NodeId u : {NodeId{1}, NodeId{10}, NodeId{30}}) {
    const auto mc = MonteCarloMean(estimator, access, u, t, 60000, 99 + u);
    EXPECT_NEAR(mc.mean, exact[u], 5.0 * mc.stderr_mean + 1e-5) << "u=" << u;
  }
}

TEST(BackwardEstimatorTest, WeightedSamplingStaysUnbiased) {
  const Graph g = testing::MakeTestBA(40, 3);
  auto design = MakeTransitionDesign("srw");
  const auto tm = TransitionMatrix::Build(g, *design);
  const NodeId start = 0;
  const int t = 5;
  const auto exact = ExactStepDistribution(tm, start, t);

  // Build genuine forward-walk history for WS-BW to lean on.
  AccessInterface access(&g);
  HitCountHistory history(t);
  Rng walk_rng(5);
  std::vector<NodeId> path;
  for (int w = 0; w < 2000; ++w) {
    Walk(access, *design, start, t, walk_rng, &path);
    history.RecordWalk(path);
  }

  BackwardWalkOptions opts;
  opts.weighted = true;
  opts.epsilon = 0.1;
  const BackwardEstimator estimator(design.get(), start, opts, nullptr,
                                    &history);
  for (NodeId u : {NodeId{2}, NodeId{12}, NodeId{33}}) {
    const auto mc = MonteCarloMean(estimator, access, u, t, 60000, 17 + u);
    EXPECT_NEAR(mc.mean, exact[u], 5.0 * mc.stderr_mean + 1e-5) << "u=" << u;
  }
}

TEST(BackwardEstimatorTest, FullHeuristicsStayUnbiased) {
  const Graph g = testing::MakeTestBA(40, 3);
  auto design = MakeTransitionDesign("srw");
  const auto tm = TransitionMatrix::Build(g, *design);
  const NodeId start = 7;
  const int t = 6;
  const auto exact = ExactStepDistribution(tm, start, t);

  AccessInterface access(&g);
  const CrawlBall ball = CrawlBall::Crawl(access, *design, start, 2);
  HitCountHistory history(t);
  Rng walk_rng(6);
  std::vector<NodeId> path;
  for (int w = 0; w < 2000; ++w) {
    Walk(access, *design, start, t, walk_rng, &path);
    history.RecordWalk(path);
  }
  BackwardWalkOptions opts;
  opts.weighted = true;
  const BackwardEstimator estimator(design.get(), start, opts, &ball,
                                    &history);
  for (NodeId u : {NodeId{0}, NodeId{15}, NodeId{39}}) {
    const auto mc = MonteCarloMean(estimator, access, u, t, 60000, 23 + u);
    EXPECT_NEAR(mc.mean, exact[u], 5.0 * mc.stderr_mean + 1e-5) << "u=" << u;
  }
}

TEST(BackwardEstimatorTest, VarianceReductionHelps) {
  // The paper's claim behind Figure 9: crawl + weighted sampling reduce the
  // per-walk estimator variance on hub-adjacent nodes.
  const Graph g = testing::MakeTestBA(60, 3);
  auto design = MakeTransitionDesign("srw");
  const NodeId start = 0;
  const int t = 8;
  AccessInterface access(&g);
  const CrawlBall ball = CrawlBall::Crawl(access, *design, start, 2);
  HitCountHistory history(t);
  Rng walk_rng(9);
  std::vector<NodeId> path;
  for (int w = 0; w < 3000; ++w) {
    Walk(access, *design, start, t, walk_rng, &path);
    history.RecordWalk(path);
  }
  const BackwardEstimator plain(design.get(), start);
  BackwardWalkOptions wopts;
  wopts.weighted = true;
  const BackwardEstimator full(design.get(), start, wopts, &ball, &history);

  auto variance_of = [&](const BackwardEstimator& e, NodeId u,
                         uint64_t seed) {
    Rng rng(seed);
    double sum = 0, sq = 0;
    constexpr int kReps = 30000;
    for (int r = 0; r < kReps; ++r) {
      const double x = e.EstimateOnce(access, u, t, rng);
      sum += x;
      sq += x * x;
    }
    const double mean = sum / kReps;
    return sq / kReps - mean * mean;
  };
  // Compare summed variance across a few probe nodes.
  double var_plain = 0, var_full = 0;
  for (NodeId u : {NodeId{1}, NodeId{2}, NodeId{10}}) {
    var_plain += variance_of(plain, u, 100 + u);
    var_full += variance_of(full, u, 200 + u);
  }
  EXPECT_LT(var_full, var_plain);
}

// The WS-BW pick memo lives in the estimator and is keyed on the history
// version. One weighted + crawl estimator reused across interleaved forward
// walks and two target steps must return exactly what a freshly built
// estimator returns for each call, and leave the RNG in the same state.
// Rounds that record no walk reuse the memo; the others must drop it.
TEST(BackwardEstimatorTest, PickMemoMatchesFreshEstimatorAcrossVersions) {
  const Graph g = testing::MakeTestBA(40, 3);
  for (const char* spec : {"srw", "mhrw"}) {
    SCOPED_TRACE(spec);
    auto design = MakeTransitionDesign(spec);
    const NodeId start = 3;
    const int walk_length = 6;
    AccessInterface access(&g);
    const CrawlBall ball = CrawlBall::Crawl(access, *design, start, 1);
    HitCountHistory history(walk_length);
    BackwardWalkOptions opts;
    opts.weighted = true;
    const BackwardEstimator reused(design.get(), start, opts, &ball,
                                   &history);
    Rng walk_rng(31);
    std::vector<NodeId> path;
    uint64_t seed = 1000;
    for (int round = 0; round < 12; ++round) {
      for (int w = 0; w < round % 3; ++w) {
        Walk(access, *design, start, walk_length, walk_rng, &path);
        history.RecordWalk(path);
      }
      for (const int t : {walk_length, walk_length - 2}) {
        for (NodeId u = 0; u < g.num_nodes(); u += 3) {
          Rng rng_reused(++seed);
          Rng rng_fresh(seed);
          const BackwardEstimator fresh(design.get(), start, opts, &ball,
                                        &history);
          ASSERT_EQ(reused.EstimateOnce(access, u, t, rng_reused),
                    fresh.EstimateOnce(access, u, t, rng_fresh))
              << "round " << round << " t " << t << " u " << u;
          ASSERT_EQ(rng_reused.Next(), rng_fresh.Next());
        }
      }
    }
  }
}

TEST(HitCountHistoryTest, CountsPerStep) {
  HitCountHistory h(3);
  const std::vector<NodeId> path1{0, 1, 2, 3};
  const std::vector<NodeId> path2{0, 1, 1, 3};
  h.RecordWalk(path1);
  h.RecordWalk(path2);
  EXPECT_EQ(h.num_walks(), 2u);
  EXPECT_EQ(h.Count(0, 0), 2u);
  EXPECT_EQ(h.Count(1, 1), 2u);
  EXPECT_EQ(h.Count(1, 2), 1u);
  EXPECT_EQ(h.Count(2, 2), 1u);
  EXPECT_EQ(h.Count(3, 3), 2u);
  EXPECT_EQ(h.Count(9, 1), 0u);
}

// The node-major table and its presence filter against a plain
// std::map<(node, step), count>. Thousands of paths over ids that include 0
// and the largest valid id make the row map and the bitset each grow many
// times; every checkpoint compares every step of every recorded node (so
// recorded nodes at unvisited steps are covered) plus random unrecorded ids.
TEST(HitCountHistoryTest, MatchesReferenceMapAcrossGrowth) {
  for (const int walk_length : {0, 1, 5, 13}) {
    SCOPED_TRACE(walk_length);
    Rng rng(4242 + static_cast<uint64_t>(walk_length));
    std::vector<NodeId> hot{0, 1, kInvalidNode - 1, kInvalidNode - 2};
    while (hot.size() < 64) {
      hot.push_back(static_cast<NodeId>(rng.NextBounded(kInvalidNode)));
    }
    auto draw_node = [&] {
      if (rng.NextBounded(2) == 0) return hot[rng.NextBounded(hot.size())];
      return static_cast<NodeId>(rng.NextBounded(kInvalidNode));
    };

    HitCountHistory history(walk_length);
    std::map<std::pair<NodeId, int>, uint32_t> reference;
    std::set<NodeId> recorded;
    auto check = [&] {
      for (const NodeId u : recorded) {
        for (int s = 0; s <= walk_length; ++s) {
          const auto it = reference.find({u, s});
          const uint32_t want = it == reference.end() ? 0 : it->second;
          ASSERT_EQ(history.Count(u, s), want) << "node " << u << " step " << s;
        }
      }
      for (int i = 0; i < 2000; ++i) {
        const NodeId u = static_cast<NodeId>(rng.NextBounded(kInvalidNode));
        if (recorded.count(u) != 0) continue;
        for (int s = 0; s <= walk_length; ++s) {
          ASSERT_EQ(history.Count(u, s), 0u) << "node " << u << " step " << s;
        }
      }
    };

    constexpr int kWalks = 3000;
    std::vector<NodeId> path(static_cast<size_t>(walk_length) + 1);
    for (int w = 1; w <= kWalks; ++w) {
      for (int s = 0; s <= walk_length; ++s) {
        path[static_cast<size_t>(s)] = draw_node();
        ++reference[{path[static_cast<size_t>(s)], s}];
        recorded.insert(path[static_cast<size_t>(s)]);
      }
      history.RecordWalk(path);
      if ((w & (w - 1)) == 0 || w == kWalks) check();
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(history.num_walks(), static_cast<uint64_t>(kWalks));
    EXPECT_EQ(history.walk_length(), walk_length);
    EXPECT_GT(recorded.size(), 1000u);  // the row map and filter grew
  }
}

}  // namespace
}  // namespace wnw
