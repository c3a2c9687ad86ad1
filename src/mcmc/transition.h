// Transition designs (paper §2.2): the pluggable "input random walk" that
// WALK-ESTIMATE is transparent to. A design can only observe the graph
// through the AccessInterface, so every probability it reports is computable
// by a third party (this is what makes the backward estimator legal).
#pragma once

#include <memory>
#include <string_view>

#include "access/access_interface.h"
#include "graph/graph.h"
#include "random/rng.h"

namespace wnw {

/// Interface for a random-walk transition design T(u, v).
///
/// All methods may issue access-interface queries (which are billed to the
/// caller's session). Designs are stateless and thread-compatible; per-walk
/// randomness comes from the caller's Rng.
class TransitionDesign {
 public:
  virtual ~TransitionDesign() = default;

  virtual std::string_view name() const = 0;

  /// True when T(u, u) can be positive (the backward estimator must then
  /// include u itself in the predecessor candidate set).
  virtual bool has_self_loops() const = 0;

  /// Samples the next node from the current node u. Isolated nodes self-loop.
  virtual NodeId Step(AccessInterface& access, NodeId u, Rng& rng) const = 0;

  /// Exact transition probability T(u, v); v must be u itself or any node
  /// (non-neighbors return 0).
  virtual double TransitionProb(AccessInterface& access, NodeId u,
                                NodeId v) const = 0;

  /// An unbiased, query-cheap estimate of T(u, v). Defaults to the exact
  /// value; designs whose exact probability is expensive to observe through
  /// the interface (MHRW's self-loop needs every neighbor's degree) override
  /// this with a one-query unbiased estimator. The backward estimator
  /// multiplies independent factors, so substituting unbiased factor
  /// estimates keeps the overall p_t estimate unbiased.
  virtual double TransitionProbEstimate(AccessInterface& access, NodeId u,
                                        NodeId v, Rng& rng) const {
    (void)rng;
    return TransitionProb(access, u, v);
  }

  /// TransitionProbEstimate for a pair the caller already knows to be an
  /// edge of a symmetric view: u != v, v is in access.EffectiveNeighbors(u)
  /// and u is in access.EffectiveNeighbors(v) (the backward estimator's
  /// predecessor drawn from cur's list). Designs may skip the adjacency
  /// search, but must issue the same queries and draws, so the value and
  /// the billing equal TransitionProbEstimate's.
  virtual double TransitionProbOnEdge(AccessInterface& access, NodeId u,
                                      NodeId v, Rng& rng) const {
    return TransitionProbEstimate(access, u, v, rng);
  }

  /// Unnormalized stationary weight w(u) with pi(u) ∝ w(u). This is the
  /// target distribution the design samples from after burn-in — and the
  /// target WALK-ESTIMATE corrects to.
  virtual double StationaryWeight(AccessInterface& access, NodeId u) const = 0;
};

/// Simple Random Walk (Definition 1): uniform over neighbors;
/// stationary pi(u) ∝ deg(u).
class SimpleRandomWalk final : public TransitionDesign {
 public:
  std::string_view name() const override { return "SRW"; }
  bool has_self_loops() const override { return false; }
  NodeId Step(AccessInterface& access, NodeId u, Rng& rng) const override;
  double TransitionProb(AccessInterface& access, NodeId u,
                        NodeId v) const override;
  double TransitionProbOnEdge(AccessInterface& access, NodeId u, NodeId v,
                              Rng& rng) const override;
  double StationaryWeight(AccessInterface& access, NodeId u) const override;
};

/// Lazy SRW: self-loop with probability alpha, otherwise an SRW step.
/// Same stationary distribution as SRW; guarantees aperiodicity (used by the
/// paper's footnote 1 to make p_t positive everywhere past the diameter).
class LazyRandomWalk final : public TransitionDesign {
 public:
  explicit LazyRandomWalk(double alpha = 0.5);
  std::string_view name() const override { return "LazySRW"; }
  bool has_self_loops() const override { return true; }
  NodeId Step(AccessInterface& access, NodeId u, Rng& rng) const override;
  double TransitionProb(AccessInterface& access, NodeId u,
                        NodeId v) const override;
  double TransitionProbOnEdge(AccessInterface& access, NodeId u, NodeId v,
                              Rng& rng) const override;
  double StationaryWeight(AccessInterface& access, NodeId u) const override;
  double alpha() const { return alpha_; }

 private:
  double alpha_;
};

/// Metropolis–Hastings Random Walk (Definition 2) targeting the uniform
/// distribution: propose a uniform neighbor v, accept with
/// min(1, deg(u)/deg(v)), otherwise stay.
class MetropolisHastingsWalk final : public TransitionDesign {
 public:
  std::string_view name() const override { return "MHRW"; }
  bool has_self_loops() const override { return true; }
  NodeId Step(AccessInterface& access, NodeId u, Rng& rng) const override;
  double TransitionProb(AccessInterface& access, NodeId u,
                        NodeId v) const override;
  /// Self-loop case: T(u,u) = 1 - E_{w ~ U(N(u))}[min(1, d(u)/d(w))], so a
  /// single uniformly drawn neighbor gives the unbiased one-query estimate
  /// 1 - min(1, d(u)/d(w)). Off-diagonal entries are already one query.
  double TransitionProbEstimate(AccessInterface& access, NodeId u, NodeId v,
                                Rng& rng) const override;
  double TransitionProbOnEdge(AccessInterface& access, NodeId u, NodeId v,
                              Rng& rng) const override;
  double StationaryWeight(AccessInterface& access, NodeId u) const override;
};

/// Maximum-degree walk: T(u,v) = 1/d_bound for neighbors, self-loop with the
/// remainder. Uniform stationary distribution without proposal rejection,
/// given a degree upper bound d_bound >= max degree.
class MaxDegreeWalk final : public TransitionDesign {
 public:
  explicit MaxDegreeWalk(uint32_t degree_bound);
  std::string_view name() const override { return "MaxDegreeWalk"; }
  bool has_self_loops() const override { return true; }
  NodeId Step(AccessInterface& access, NodeId u, Rng& rng) const override;
  double TransitionProb(AccessInterface& access, NodeId u,
                        NodeId v) const override;
  double TransitionProbOnEdge(AccessInterface& access, NodeId u, NodeId v,
                              Rng& rng) const override;
  double StationaryWeight(AccessInterface& access, NodeId u) const override;
  uint32_t degree_bound() const { return degree_bound_; }

 private:
  uint32_t degree_bound_;
};

/// Factory by name ("srw", "mhrw", "lazy", "maxdeg:<bound>"), used by
/// examples/benches for CLI switches.
std::unique_ptr<TransitionDesign> MakeTransitionDesign(std::string_view spec);

}  // namespace wnw
