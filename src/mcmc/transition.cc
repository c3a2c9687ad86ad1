#include "mcmc/transition.h"

#include <algorithm>
#include <string>

#include "util/check.h"
#include "util/string_util.h"

namespace wnw {

namespace {
bool Adjacent(std::span<const NodeId> sorted_neighbors, NodeId v) {
  return std::binary_search(sorted_neighbors.begin(), sorted_neighbors.end(),
                            v);
}
}  // namespace

NodeId TransitionDesign::Step(AccessInterface& access, NodeId u,
                              Rng& rng) const {
  WNW_CHECK(kernel_.has_value());
  // srw and lazy read SampleNeighbor's list: a fresh server draw under
  // kRandomSubset, where EffectiveNeighbors is undefined.
  const bool sampled =
      (kernel_->kind == StepKernel::Kind::kSrw ||
       kernel_->kind == StepKernel::Kind::kLazy) &&
      access.options().restriction == NeighborRestriction::kRandomSubset;
  return KernelStep(
      *kernel_,
      [&](NodeId x) {
        return sampled ? access.Neighbors(x) : access.EffectiveNeighbors(x);
      },
      u, rng);
}

// ---------------------------------------------------------------- SRW ------

double SimpleRandomWalk::TransitionProb(AccessInterface& access, NodeId u,
                                        NodeId v) const {
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return v == u ? 1.0 : 0.0;
  if (v == u) return 0.0;
  return Adjacent(nbrs, v) ? 1.0 / static_cast<double>(nbrs.size()) : 0.0;
}

double SimpleRandomWalk::TransitionProbOnEdge(AccessInterface& access,
                                              NodeId u, NodeId v,
                                              Rng& rng) const {
  (void)v;
  (void)rng;
  return 1.0 / static_cast<double>(access.EffectiveDegree(u));
}

double SimpleRandomWalk::StationaryWeight(AccessInterface& access,
                                          NodeId u) const {
  return static_cast<double>(access.EffectiveDegree(u));
}

// ----------------------------------------------------------- Lazy SRW ------

LazyRandomWalk::LazyRandomWalk(double alpha)
    : TransitionDesign({.kind = StepKernel::Kind::kLazy, .alpha = alpha}) {
  WNW_CHECK(alpha > 0.0 && alpha < 1.0);
}

double LazyRandomWalk::TransitionProb(AccessInterface& access, NodeId u,
                                      NodeId v) const {
  const double alpha = step_kernel()->alpha;
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return v == u ? 1.0 : 0.0;
  if (v == u) return alpha;
  return Adjacent(nbrs, v)
             ? (1.0 - alpha) / static_cast<double>(nbrs.size())
             : 0.0;
}

double LazyRandomWalk::TransitionProbOnEdge(AccessInterface& access,
                                            NodeId u, NodeId v,
                                            Rng& rng) const {
  (void)v;
  (void)rng;
  return (1.0 - step_kernel()->alpha) /
         static_cast<double>(access.EffectiveDegree(u));
}

double LazyRandomWalk::StationaryWeight(AccessInterface& access,
                                        NodeId u) const {
  return static_cast<double>(access.EffectiveDegree(u));
}

// --------------------------------------------------------------- MHRW ------

double MetropolisHastingsWalk::TransitionProb(AccessInterface& access,
                                              NodeId u, NodeId v) const {
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return v == u ? 1.0 : 0.0;
  const double du = static_cast<double>(nbrs.size());
  if (v != u) {
    if (!Adjacent(nbrs, v)) return 0.0;
    const double dv = static_cast<double>(access.EffectiveDegree(v));
    if (dv <= 0.0) return 0.0;
    return std::min(1.0 / du, 1.0 / dv);
  }
  // Self-loop: the rejected proposal mass. Requires the degree of every
  // neighbor — a genuinely expensive query for a third party, billed as such.
  double out_mass = 0.0;
  for (NodeId w : nbrs) {
    const double dw = static_cast<double>(access.EffectiveDegree(w));
    if (dw > 0.0) out_mass += std::min(1.0 / du, 1.0 / dw);
  }
  return std::max(0.0, 1.0 - out_mass);
}

double MetropolisHastingsWalk::TransitionProbEstimate(AccessInterface& access,
                                                      NodeId u, NodeId v,
                                                      Rng& rng) const {
  if (v != u) return TransitionProb(access, u, v);
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return 1.0;
  const double du = static_cast<double>(nbrs.size());
  const NodeId w = nbrs[rng.NextBounded(nbrs.size())];
  const double dw = static_cast<double>(access.EffectiveDegree(w));
  if (dw <= 0.0) return 1.0;
  return 1.0 - std::min(1.0, du / dw);
}

double MetropolisHastingsWalk::TransitionProbOnEdge(AccessInterface& access,
                                                    NodeId u, NodeId v,
                                                    Rng& rng) const {
  (void)rng;
  const double du = static_cast<double>(access.EffectiveDegree(u));
  const double dv = static_cast<double>(access.EffectiveDegree(v));
  return std::min(1.0 / du, 1.0 / dv);
}

double MetropolisHastingsWalk::StationaryWeight(AccessInterface& access,
                                                NodeId u) const {
  (void)access;
  (void)u;
  return 1.0;  // uniform target
}

// ----------------------------------------------------- MaxDegree walk ------

MaxDegreeWalk::MaxDegreeWalk(uint32_t degree_bound)
    : TransitionDesign({.kind = StepKernel::Kind::kMaxDeg,
                        .degree_bound = degree_bound}) {
  WNW_CHECK(degree_bound >= 1);
}

double MaxDegreeWalk::TransitionProb(AccessInterface& access, NodeId u,
                                     NodeId v) const {
  const uint32_t bound = step_kernel()->degree_bound;
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return v == u ? 1.0 : 0.0;
  WNW_CHECK(nbrs.size() <= bound);
  if (v == u) return 1.0 - static_cast<double>(nbrs.size()) / bound;
  return Adjacent(nbrs, v) ? 1.0 / bound : 0.0;
}

double MaxDegreeWalk::TransitionProbOnEdge(AccessInterface& access, NodeId u,
                                           NodeId v, Rng& rng) const {
  (void)v;
  (void)rng;
  const uint32_t bound = step_kernel()->degree_bound;
  WNW_CHECK(access.EffectiveDegree(u) <= bound);
  return 1.0 / bound;
}

double MaxDegreeWalk::StationaryWeight(AccessInterface& access,
                                       NodeId u) const {
  (void)access;
  (void)u;
  return 1.0;  // uniform target
}

// ------------------------------------------------------------ factory ------

Result<std::unique_ptr<TransitionDesign>> ParseTransitionDesign(
    std::string_view spec, const Graph* graph, const AccessOptions& view) {
  std::unique_ptr<TransitionDesign> design;
  if (spec == "srw") design = std::make_unique<SimpleRandomWalk>();
  if (spec == "mhrw") design = std::make_unique<MetropolisHastingsWalk>();
  if (spec == "lazy") design = std::make_unique<LazyRandomWalk>();
  if (spec.starts_with("maxdeg:")) {
    const std::string_view digits = spec.substr(spec.find(':') + 1);
    uint64_t bound = 0;
    if (!ParseUint64(digits, &bound) || bound < 1 || bound > UINT32_MAX) {
      return Status::InvalidArgument("maxdeg bound '" + std::string(digits) +
                                     "' must be an integer in [1, 2^32)");
    }
    uint32_t max_degree = graph != nullptr ? graph->max_degree() : 0;
    if (view.restriction != NeighborRestriction::kNone) {
      max_degree = std::min(max_degree, view.max_neighbors);
    }
    if (bound < max_degree) {
      return Status::InvalidArgument(
          "maxdeg bound " + std::to_string(bound) +
          " is below the view's maximum degree " + std::to_string(max_degree));
    }
    design = std::make_unique<MaxDegreeWalk>(static_cast<uint32_t>(bound));
  }
  if (design == nullptr) {
    return Status::InvalidArgument(
        "unknown walk design '" + std::string(spec) +
        "' (expected srw | mhrw | lazy | maxdeg:<bound>)");
  }
  return design;
}

std::unique_ptr<TransitionDesign> MakeTransitionDesign(std::string_view spec) {
  auto design = ParseTransitionDesign(spec);
  return design.ok() ? std::move(*design) : nullptr;
}

}  // namespace wnw
