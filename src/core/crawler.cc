#include "core/crawler.h"

#include "util/check.h"

namespace wnw {

CrawlBall CrawlBall::Crawl(AccessInterface& access,
                           const TransitionDesign& design, NodeId start,
                           int hops) {
  WNW_CHECK(hops >= 0);
  CrawlBall ball;
  ball.start_ = start;
  ball.radius_ = hops;

  // Level-order BFS to depth `hops`, querying every node encountered at
  // distance <= hops. Every node of a level is guaranteed to be queried, so
  // each level is prefetched as one backend batch — under a
  // latency-simulating backend the crawl pays one round trip per level
  // instead of one per node.
  ball.index_.Emplace(start, 0u);
  ball.nodes_.push_back(start);
  ball.distance_.push_back(0);
  std::vector<NodeId> frontier{start};
  for (int d = 0; d <= hops && !frontier.empty(); ++d) {
    access.Prefetch(frontier);
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      // Boundary nodes (d == hops) are still queried: their degree (and
      // adjacency back into the ball) is needed for exact MHRW transition
      // probabilities.
      const auto nbrs = access.EffectiveNeighbors(u);
      if (d == hops) continue;
      for (NodeId v : nbrs) {
        if (ball.index_.Contains(v)) continue;
        ball.index_.Emplace(v, static_cast<uint32_t>(ball.nodes_.size()));
        ball.nodes_.push_back(v);
        ball.distance_.push_back(static_cast<uint32_t>(d) + 1);
        next.push_back(v);
      }
    }
    // Kick the next level's batch off now — still ONE round trip per level
    // (identical billing to the synchronous crawl), but with a fetch
    // executor the requests are already flying when the Prefetch at the top
    // of the next iteration folds them in.
    access.PrefetchAsync(next);
    frontier = std::move(next);
  }

  // Exact step distributions p_0..p_hops inside the ball.
  ball.probs_.assign(static_cast<size_t>(hops) + 1,
                     std::vector<double>(ball.nodes_.size(), 0.0));
  ball.probs_[0][0] = 1.0;
  for (int s = 1; s <= hops; ++s) {
    const auto& prev = ball.probs_[s - 1];
    auto& cur = ball.probs_[s];
    for (uint32_t yi = 0; yi < ball.nodes_.size(); ++yi) {
      const double py = prev[yi];
      if (py <= 0.0) continue;
      // Mass can only sit at distance <= s-1 <= hops-1, so y is fully
      // queried and all its neighbors are ball members.
      WNW_DCHECK(ball.distance_[yi] + 1 <= static_cast<uint32_t>(hops));
      const NodeId y = ball.nodes_[yi];
      // Self term: design self-loops, or a degenerate isolated node (every
      // design self-loops with probability 1 there).
      if (design.has_self_loops() || access.EffectiveNeighbors(y).empty()) {
        cur[yi] += py * design.TransitionProb(access, y, y);
      }
      for (NodeId x : access.EffectiveNeighbors(y)) {
        const uint32_t* xi = ball.index_.Find(x);
        WNW_DCHECK(xi != nullptr);
        cur[*xi] += py * design.TransitionProb(access, y, x);
      }
    }
  }
  return ball;
}

double CrawlBall::ExactProb(NodeId v, int s) const {
  WNW_CHECK(s >= 0 && s <= radius_);
  const uint32_t* vi = index_.Find(v);
  if (vi == nullptr) return 0.0;
  return probs_[static_cast<size_t>(s)][*vi];
}

int CrawlBall::DistanceTo(NodeId v) const {
  const uint32_t* vi = index_.Find(v);
  WNW_CHECK(vi != nullptr);
  return static_cast<int>(distance_[*vi]);
}

}  // namespace wnw
