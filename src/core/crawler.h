// Initial crawling (paper §5.2): crawl the h-hop ball around the walk's
// starting node and compute the walk's EXACT step distribution p_s inside it
// for every s <= h. The backward estimator can then stop a backward walk as
// soon as its remaining step index s drops to h, replacing the noisy
// "did we land exactly on the start node" indicator with an exact value —
// the first of the paper's two variance-reduction heuristics.
//
// Correctness note: a walk of s <= h steps from the start never leaves the
// radius-h ball, and every transition it can take originates at a node of
// distance <= h-1, all of which are fully queried by the crawl. Hence p_s is
// exact for s <= h, and p_s(v) = 0 exactly for any v outside the ball.
#pragma once

#include <vector>

#include "access/access_interface.h"
#include "access/flat_map.h"
#include "graph/graph.h"
#include "mcmc/transition.h"

namespace wnw {

class CrawlBall {
 public:
  /// Crawls the radius-`hops` ball around `start` through `access` (queries
  /// are billed — this is the heuristic's up-front cost, amortized across
  /// all samples drawn from the same start) and precomputes exact p_s for
  /// s = 0..hops under `design`.
  static CrawlBall Crawl(AccessInterface& access,
                         const TransitionDesign& design, NodeId start,
                         int hops);

  NodeId start() const { return start_; }
  int radius() const { return radius_; }
  size_t ball_size() const { return nodes_.size(); }

  /// True when v is within the crawled radius.
  bool Contains(NodeId v) const { return index_.Contains(v); }

  /// Exact p_s(v) for s <= radius(). Nodes outside the ball have exactly
  /// zero probability at these steps, so this is total (defined for all v).
  double ExactProb(NodeId v, int s) const;

  /// Hop distance from the start (only for ball members).
  int DistanceTo(NodeId v) const;

 private:
  NodeId start_ = kInvalidNode;
  int radius_ = 0;
  std::vector<NodeId> nodes_;               // local index -> node id
  FlatNodeMap<uint32_t> index_;             // node id -> local index
  std::vector<uint32_t> distance_;          // per local index
  std::vector<std::vector<double>> probs_;  // probs_[s][local index]
};

}  // namespace wnw
