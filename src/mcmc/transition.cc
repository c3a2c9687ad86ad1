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

// ---------------------------------------------------------------- SRW ------

NodeId SimpleRandomWalk::Step(AccessInterface& access, NodeId u,
                              Rng& rng) const {
  const NodeId v = access.SampleNeighbor(u, rng);
  return v == kInvalidNode ? u : v;
}

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

LazyRandomWalk::LazyRandomWalk(double alpha) : alpha_(alpha) {
  WNW_CHECK(alpha > 0.0 && alpha < 1.0);
}

NodeId LazyRandomWalk::Step(AccessInterface& access, NodeId u,
                            Rng& rng) const {
  if (rng.NextBool(alpha_)) return u;
  const NodeId v = access.SampleNeighbor(u, rng);
  return v == kInvalidNode ? u : v;
}

double LazyRandomWalk::TransitionProb(AccessInterface& access, NodeId u,
                                      NodeId v) const {
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return v == u ? 1.0 : 0.0;
  if (v == u) return alpha_;
  return Adjacent(nbrs, v)
             ? (1.0 - alpha_) / static_cast<double>(nbrs.size())
             : 0.0;
}

double LazyRandomWalk::TransitionProbOnEdge(AccessInterface& access,
                                            NodeId u, NodeId v,
                                            Rng& rng) const {
  (void)v;
  (void)rng;
  return (1.0 - alpha_) / static_cast<double>(access.EffectiveDegree(u));
}

double LazyRandomWalk::StationaryWeight(AccessInterface& access,
                                        NodeId u) const {
  return static_cast<double>(access.EffectiveDegree(u));
}

// --------------------------------------------------------------- MHRW ------

NodeId MetropolisHastingsWalk::Step(AccessInterface& access, NodeId u,
                                    Rng& rng) const {
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return u;
  const NodeId v = nbrs[rng.NextBounded(nbrs.size())];
  const double du = static_cast<double>(nbrs.size());
  const double dv = static_cast<double>(access.EffectiveDegree(v));
  if (dv <= 0.0) return u;
  // Accept with min(1, d(u)/d(v)); otherwise self-loop.
  return rng.NextDouble() < du / dv ? v : u;
}

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
    : degree_bound_(degree_bound) {
  WNW_CHECK(degree_bound >= 1);
}

NodeId MaxDegreeWalk::Step(AccessInterface& access, NodeId u, Rng& rng) const {
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return u;
  // With probability d(u)/d_bound move to a uniform neighbor, else stay.
  const uint64_t pick = rng.NextBounded(degree_bound_);
  if (pick < nbrs.size()) return nbrs[pick];
  return u;
}

double MaxDegreeWalk::TransitionProb(AccessInterface& access, NodeId u,
                                     NodeId v) const {
  const auto nbrs = access.EffectiveNeighbors(u);
  if (nbrs.empty()) return v == u ? 1.0 : 0.0;
  WNW_CHECK(nbrs.size() <= degree_bound_);
  if (v == u) {
    return 1.0 - static_cast<double>(nbrs.size()) / degree_bound_;
  }
  return Adjacent(nbrs, v) ? 1.0 / degree_bound_ : 0.0;
}

double MaxDegreeWalk::TransitionProbOnEdge(AccessInterface& access, NodeId u,
                                           NodeId v, Rng& rng) const {
  (void)v;
  (void)rng;
  WNW_CHECK(access.EffectiveDegree(u) <= degree_bound_);
  return 1.0 / degree_bound_;
}

double MaxDegreeWalk::StationaryWeight(AccessInterface& access,
                                       NodeId u) const {
  (void)access;
  (void)u;
  return 1.0;  // uniform target
}

// ------------------------------------------------------------ factory ------

std::unique_ptr<TransitionDesign> MakeTransitionDesign(std::string_view spec) {
  if (spec == "srw") return std::make_unique<SimpleRandomWalk>();
  if (spec == "mhrw") return std::make_unique<MetropolisHastingsWalk>();
  if (spec == "lazy") return std::make_unique<LazyRandomWalk>();
  constexpr std::string_view kMaxDegPrefix = "maxdeg:";
  if (spec.substr(0, kMaxDegPrefix.size()) == kMaxDegPrefix) {
    uint64_t bound = 0;
    if (ParseUint64(spec.substr(kMaxDegPrefix.size()), &bound) && bound > 0) {
      return std::make_unique<MaxDegreeWalk>(static_cast<uint32_t>(bound));
    }
  }
  return nullptr;
}

}  // namespace wnw
