#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "access/access_interface.h"
#include "mcmc/distribution.h"
#include "mcmc/transition.h"
#include "mcmc/walker.h"
#include "test_util.h"

namespace wnw {
namespace {

// Empirically verifies that design.Step matches design.TransitionProb by
// stepping many times from each node and chi-square-eyeballing frequencies.
void ExpectStepMatchesProb(const Graph& g, const TransitionDesign& design,
                           uint64_t seed, double tol = 0.02) {
  AccessInterface access(&g);
  Rng rng(seed);
  constexpr int kDraws = 40000;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<int> counts(g.num_nodes(), 0);
    for (int i = 0; i < kDraws; ++i) counts[design.Step(access, u, rng)]++;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double expect = design.TransitionProb(access, u, v);
      EXPECT_NEAR(static_cast<double>(counts[v]) / kDraws, expect, tol)
          << design.name() << " " << u << "->" << v;
    }
  }
}

// Transition rows must be probability distributions.
void ExpectRowsStochastic(const Graph& g, const TransitionDesign& design) {
  AccessInterface access(&g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    double row = design.TransitionProb(access, u, u);
    for (NodeId v : g.Neighbors(u)) {
      const double p = design.TransitionProb(access, u, v);
      EXPECT_GE(p, 0.0);
      row += p;
    }
    EXPECT_NEAR(row, 1.0, 1e-12) << design.name() << " row " << u;
  }
}

TEST(SrwTest, RowsStochastic) {
  SimpleRandomWalk srw;
  ExpectRowsStochastic(testing::MakeHouseGraph(), srw);
  ExpectRowsStochastic(testing::MakeTestBA(30, 2), srw);
}

TEST(SrwTest, UniformOverNeighbors) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  SimpleRandomWalk srw;
  EXPECT_DOUBLE_EQ(srw.TransitionProb(access, 0, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(srw.TransitionProb(access, 3, 0), 1.0);
  EXPECT_DOUBLE_EQ(srw.TransitionProb(access, 0, 4), 0.0);  // non-neighbor
  EXPECT_DOUBLE_EQ(srw.TransitionProb(access, 0, 0), 0.0);  // no self-loop
}

TEST(SrwTest, StepMatchesProb) {
  SimpleRandomWalk srw;
  ExpectStepMatchesProb(testing::MakeHouseGraph(), srw, 17);
}

TEST(SrwTest, StationaryWeightIsDegree) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  SimpleRandomWalk srw;
  EXPECT_DOUBLE_EQ(srw.StationaryWeight(access, 0), 3.0);
  EXPECT_DOUBLE_EQ(srw.StationaryWeight(access, 3), 1.0);
}

TEST(LazyTest, SelfLoopProbability) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  LazyRandomWalk lazy(0.3);
  EXPECT_DOUBLE_EQ(lazy.TransitionProb(access, 0, 0), 0.3);
  EXPECT_DOUBLE_EQ(lazy.TransitionProb(access, 0, 1), 0.7 / 3.0);
  EXPECT_TRUE(lazy.has_self_loops());
  ExpectRowsStochastic(g, lazy);
}

TEST(LazyTest, StepMatchesProb) {
  LazyRandomWalk lazy(0.5);
  ExpectStepMatchesProb(testing::MakeHouseGraph(), lazy, 19);
}

TEST(MhrwTest, RowsStochastic) {
  MetropolisHastingsWalk mhrw;
  ExpectRowsStochastic(testing::MakeHouseGraph(), mhrw);
  ExpectRowsStochastic(testing::MakeTestBA(30, 2), mhrw);
}

TEST(MhrwTest, SymmetricTransitions) {
  // MHRW targeting uniform is a symmetric chain: T(u,v) = T(v,u).
  const Graph g = testing::MakeTestBA(30, 2);
  AccessInterface access(&g);
  MetropolisHastingsWalk mhrw;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      EXPECT_NEAR(mhrw.TransitionProb(access, u, v),
                  mhrw.TransitionProb(access, v, u), 1e-14);
    }
  }
}

TEST(MhrwTest, Definition2Values) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  MetropolisHastingsWalk mhrw;
  // T(0,3): deg(0)=3, deg(3)=1 -> (1/3)*min(1, 3/1) = 1/3.
  EXPECT_DOUBLE_EQ(mhrw.TransitionProb(access, 0, 3), 1.0 / 3.0);
  // T(3,0): (1/1)*min(1, 1/3) = 1/3.
  EXPECT_DOUBLE_EQ(mhrw.TransitionProb(access, 3, 0), 1.0 / 3.0);
  // T(3,3): 1 - 1/3 = 2/3.
  EXPECT_DOUBLE_EQ(mhrw.TransitionProb(access, 3, 3), 2.0 / 3.0);
}

TEST(MhrwTest, StepMatchesProb) {
  MetropolisHastingsWalk mhrw;
  ExpectStepMatchesProb(testing::MakeHouseGraph(), mhrw, 23);
}

TEST(MhrwTest, UniformStationary) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  MetropolisHastingsWalk mhrw;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(mhrw.StationaryWeight(access, u), 1.0);
  }
}

TEST(MaxDegreeTest, RowsStochastic) {
  const Graph g = testing::MakeHouseGraph();
  MaxDegreeWalk walk(g.max_degree());
  ExpectRowsStochastic(g, walk);
}

TEST(MaxDegreeTest, StepMatchesProb) {
  const Graph g = testing::MakeHouseGraph();
  MaxDegreeWalk walk(4);
  ExpectStepMatchesProb(g, walk, 29);
}

TEST(MaxDegreeTest, UniformStationaryByDetailedBalance) {
  // T(u,v) = T(v,u) = 1/d_bound for every edge -> uniform is stationary.
  const Graph g = testing::MakeTestBA(25, 2);
  AccessInterface access(&g);
  MaxDegreeWalk walk(g.max_degree() + 3);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      EXPECT_DOUBLE_EQ(walk.TransitionProb(access, u, v),
                       walk.TransitionProb(access, v, u));
    }
  }
}

TEST(IsolatedNodeTest, AllDesignsSelfLoop) {
  GraphBuilder b(2);
  const Graph g = std::move(b).Build().value();
  AccessInterface access(&g);
  Rng rng(1);
  SimpleRandomWalk srw;
  MetropolisHastingsWalk mhrw;
  LazyRandomWalk lazy(0.5);
  EXPECT_EQ(srw.Step(access, 0, rng), 0u);
  EXPECT_EQ(mhrw.Step(access, 0, rng), 0u);
  EXPECT_EQ(lazy.Step(access, 0, rng), 0u);
  EXPECT_DOUBLE_EQ(srw.TransitionProb(access, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(mhrw.TransitionProb(access, 0, 0), 1.0);
}

TEST(FactoryTest, KnownSpecs) {
  EXPECT_EQ(MakeTransitionDesign("srw")->name(), "SRW");
  EXPECT_EQ(MakeTransitionDesign("mhrw")->name(), "MHRW");
  EXPECT_EQ(MakeTransitionDesign("lazy")->name(), "LazySRW");
  auto maxdeg = MakeTransitionDesign("maxdeg:12");
  ASSERT_NE(maxdeg, nullptr);
  EXPECT_EQ(maxdeg->name(), "MaxDegreeWalk");
}

TEST(FactoryTest, UnknownSpecsReturnNull) {
  EXPECT_EQ(MakeTransitionDesign("bogus"), nullptr);
  EXPECT_EQ(MakeTransitionDesign("maxdeg:notanumber"), nullptr);
  EXPECT_EQ(MakeTransitionDesign("maxdeg:0"), nullptr);
}

TEST(WalkTest, PathHasCorrectLengthAndAdjacency) {
  const Graph g = testing::MakeTestBA(40, 3);
  AccessInterface access(&g);
  SimpleRandomWalk srw;
  Rng rng(31);
  std::vector<NodeId> path;
  const NodeId end = Walk(access, srw, 0, 25, rng, &path);
  ASSERT_EQ(path.size(), 26u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), end);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(path[i], path[i + 1]));
  }
}

TEST(WalkTest, ZeroStepsStaysPut) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  SimpleRandomWalk srw;
  Rng rng(1);
  std::vector<NodeId> path;
  EXPECT_EQ(Walk(access, srw, 2, 0, rng, &path), 2u);
  EXPECT_EQ(path, (std::vector<NodeId>{2}));
}

TEST(WalkTest, ObservedRecordsTheta) {
  const Graph g = testing::MakeHouseGraph();
  AccessInterface access(&g);
  SimpleRandomWalk srw;
  Rng rng(2);
  std::vector<double> obs;
  WalkObserved(
      access, srw, 0, 10, rng,
      [&](NodeId u) { return static_cast<double>(g.Degree(u)); }, &obs);
  ASSERT_EQ(obs.size(), 11u);
  EXPECT_DOUBLE_EQ(obs[0], 3.0);  // degree of node 0
}

TEST(WalkTest, MhrwStepsBillDegreesQueries) {
  // MHRW needs the proposed neighbor's degree, so it touches more nodes than
  // its trajectory alone: cost(MHRW walk) >= cost(path nodes).
  const Graph g = testing::MakeTestBA(60, 3);
  AccessInterface access(&g);
  MetropolisHastingsWalk mhrw;
  Rng rng(3);
  Walk(access, mhrw, 0, 50, rng);
  EXPECT_GT(access.query_cost(), 0u);
  EXPECT_GE(access.total_queries(), 50u);
}

// TransitionProbOnEdge skips the adjacency search but must agree with
// TransitionProbEstimate exactly, in value and in billing, on every edge of
// a symmetric view: the full graph and a fixed subset under the
// bidirectional check.
TEST(OnEdgeTest, MatchesEstimateOnEverySymmetricEdge) {
  const Graph g = testing::MakeTestBA(60, 3);
  AccessOptions fixed;
  fixed.restriction = NeighborRestriction::kFixedSubset;
  fixed.max_neighbors = 4;
  fixed.bidirectional_check = true;
  for (const AccessOptions& opts : {AccessOptions{}, fixed}) {
    for (const char* spec : {"srw", "lazy", "mhrw", "maxdeg:64"}) {
      SCOPED_TRACE(spec);
      const auto design = MakeTransitionDesign(spec);
      AccessInterface on_edge(&g, opts);
      AccessInterface estimate(&g, opts);
      ASSERT_TRUE(on_edge.symmetric_view());
      Rng rng_a(11), rng_b(11);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const auto nbrs = estimate.EffectiveNeighbors(u);
        on_edge.EffectiveNeighbors(u);
        for (NodeId v : nbrs) {
          EXPECT_EQ(design->TransitionProbOnEdge(on_edge, u, v, rng_a),
                    design->TransitionProbEstimate(estimate, u, v, rng_b))
              << u << "->" << v;
        }
      }
      EXPECT_EQ(on_edge.total_queries(), estimate.total_queries());
      EXPECT_EQ(on_edge.query_cost(), estimate.query_cost());
      EXPECT_EQ(rng_a.Next(), rng_b.Next());
    }
  }
}

}  // namespace
}  // namespace wnw
