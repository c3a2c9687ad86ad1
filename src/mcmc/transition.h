// Transition designs (paper §2.2): the pluggable "input random walk" that
// WALK-ESTIMATE is transparent to. A design can only observe the graph
// through the AccessInterface, so every probability it reports is computable
// by a third party (this is what makes the backward estimator legal).
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "access/access_interface.h"
#include "graph/graph.h"
#include "random/rng.h"
#include "util/status.h"

namespace wnw {

/// What KernelStep needs to know about a built-in design. Each built-in
/// design's step is written once, in KernelStep: TransitionDesign::Step runs
/// it against a session's AccessInterface and the block engine's flat
/// walkers against their per-walker meter (engine/walker_program.cc), so
/// both paths fetch and draw in the same order by construction.
struct StepKernel {
  enum class Kind { kSrw, kLazy, kMhrw, kMaxDeg };
  Kind kind = Kind::kSrw;
  double alpha = 0.5;         // kLazy: self-loop probability
  uint32_t degree_bound = 0;  // kMaxDeg: at least every degree in the view
};

/// Samples the next node from u. `fetch(x)` returns x's neighbor list and is
/// called once per logical query; `rng` is an Rng or an RngCore, which draw
/// the same stream from the same seed. Isolated nodes self-loop.
template <typename Fetch, typename R>
inline NodeId KernelStep(const StepKernel& kernel, Fetch&& fetch, NodeId u,
                         R& rng) {
  if (kernel.kind == StepKernel::Kind::kLazy && rng.NextBool(kernel.alpha)) {
    return u;
  }
  const std::span<const NodeId> nbrs = fetch(u);
  if (nbrs.empty()) return u;
  switch (kernel.kind) {
    case StepKernel::Kind::kLazy:  // a lazy walk that moves takes an SRW step
    case StepKernel::Kind::kSrw:
      return nbrs[rng.NextBounded(nbrs.size())];
    case StepKernel::Kind::kMhrw: {
      // Propose a uniform neighbor v; accept with min(1, d(u)/d(v)).
      const NodeId v = nbrs[rng.NextBounded(nbrs.size())];
      const double du = static_cast<double>(nbrs.size());
      const double dv = static_cast<double>(fetch(v).size());
      if (dv <= 0.0) return u;
      return rng.NextDouble() < du / dv ? v : u;
    }
    case StepKernel::Kind::kMaxDeg: {
      // With probability d(u)/d_bound move to a uniform neighbor, else stay.
      const uint64_t pick = rng.NextBounded(kernel.degree_bound);
      return pick < nbrs.size() ? nbrs[pick] : u;
    }
  }
  return u;
}

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

  /// The built-in design's step, or nullptr for a design that overrides
  /// Step itself (the block engine then runs it in session mode).
  const StepKernel* step_kernel() const {
    return kernel_.has_value() ? &*kernel_ : nullptr;
  }

  /// Samples the next node from the current node u. Isolated nodes
  /// self-loop. The default runs step_kernel() against `access`, reading
  /// SampleNeighbor's list for srw and lazy, EffectiveNeighbors otherwise.
  virtual NodeId Step(AccessInterface& access, NodeId u, Rng& rng) const;

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

 protected:
  TransitionDesign() = default;
  explicit TransitionDesign(StepKernel kernel) : kernel_(kernel) {}

 private:
  std::optional<StepKernel> kernel_;
};

/// Simple Random Walk (Definition 1): uniform over neighbors;
/// stationary pi(u) ∝ deg(u).
class SimpleRandomWalk final : public TransitionDesign {
 public:
  SimpleRandomWalk() : TransitionDesign({.kind = StepKernel::Kind::kSrw}) {}
  std::string_view name() const override { return "SRW"; }
  bool has_self_loops() const override { return false; }
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
  double TransitionProb(AccessInterface& access, NodeId u,
                        NodeId v) const override;
  double TransitionProbOnEdge(AccessInterface& access, NodeId u, NodeId v,
                              Rng& rng) const override;
  double StationaryWeight(AccessInterface& access, NodeId u) const override;
};

/// Metropolis–Hastings Random Walk (Definition 2) targeting the uniform
/// distribution: propose a uniform neighbor v, accept with
/// min(1, deg(u)/deg(v)), otherwise stay.
class MetropolisHastingsWalk final : public TransitionDesign {
 public:
  MetropolisHastingsWalk()
      : TransitionDesign({.kind = StepKernel::Kind::kMhrw}) {}
  std::string_view name() const override { return "MHRW"; }
  bool has_self_loops() const override { return true; }
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
  double TransitionProb(AccessInterface& access, NodeId u,
                        NodeId v) const override;
  double TransitionProbOnEdge(AccessInterface& access, NodeId u, NodeId v,
                              Rng& rng) const override;
  double StationaryWeight(AccessInterface& access, NodeId u) const override;
};

/// The design a walk spec names: "srw", "mhrw", "lazy" or "maxdeg:<bound>".
/// An unknown name, or a maxdeg bound outside [1, 2^32), is InvalidArgument;
/// so is a bound below the maximum degree of `graph` seen through `view`
/// (capped at max_neighbors under a restriction), since T(u, v) = 1/bound
/// needs every degree to fit. SamplingSession::Open and RunWalkEngine build
/// their design here.
Result<std::unique_ptr<TransitionDesign>> ParseTransitionDesign(
    std::string_view spec, const Graph* graph = nullptr,
    const AccessOptions& view = {});

/// ParseTransitionDesign's design, or nullptr for a spec it refuses.
std::unique_ptr<TransitionDesign> MakeTransitionDesign(std::string_view spec);

}  // namespace wnw
