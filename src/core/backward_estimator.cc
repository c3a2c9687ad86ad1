#include "core/backward_estimator.h"

#include "random/sampling.h"
#include "util/check.h"

namespace wnw {

// The bitset starts as one 64-bit word (shift 64 - log2(64)).
HitCountHistory::HitCountHistory(int walk_length)
    : walk_length_(walk_length), filter_(1, 0), filter_shift_(64 - 6) {
  WNW_CHECK(walk_length >= 0);
}

void HitCountHistory::RecordWalk(std::span<const NodeId> path) {
  WNW_CHECK(path.size() == stride());
  for (size_t s = 0; s < path.size(); ++s) {
    const uint32_t* row = rows_.Find(path[s]);
    const size_t r = row != nullptr ? *row : AddRow(path[s]);
    counts_[r * stride() + s]++;
  }
  ++num_walks_;
}

uint32_t HitCountHistory::AddRow(NodeId u) {
  const auto r = static_cast<uint32_t>(nodes_.size());
  rows_.Emplace(u, uint32_t{r});
  nodes_.push_back(u);
  counts_.resize(counts_.size() + stride(), 0);
  if (nodes_.size() * kFilterBitsPerNode <= filter_.size() * 64) {
    SetFilterBit(u);
    return r;
  }
  // Outgrown: double the bitset and re-set every recorded node's bit.
  filter_.assign(filter_.size() * 2, 0);
  --filter_shift_;
  for (const NodeId v : nodes_) SetFilterBit(v);
  return r;
}

BackwardEstimator::BackwardEstimator(const TransitionDesign* design,
                                     NodeId start,
                                     BackwardWalkOptions options,
                                     const CrawlBall* ball,
                                     const HitCountHistory* history)
    : design_(design),
      start_(start),
      options_(options),
      ball_(ball),
      history_(history) {
  WNW_CHECK(design_ != nullptr);
  if (options_.weighted) {
    WNW_CHECK(history_ != nullptr);
    WNW_CHECK(options_.epsilon > 0.0 && options_.epsilon <= 1.0);
  }
  if (ball_ != nullptr) WNW_CHECK(ball_->start() == start);
}

double BackwardEstimator::EstimateOnce(AccessInterface& access, NodeId u,
                                       int t, Rng& rng) const {
  WNW_CHECK(t >= 0);
  double weight = 1.0;
  NodeId cur = u;
  int s = t;
  const bool self_loops = design_->has_self_loops();

  while (true) {
    // Initial-crawling termination: p_s is exact for s <= ball radius (zero
    // outside the ball), so the recursion can stop here.
    if (ball_ != nullptr && s <= ball_->radius()) {
      return weight * ball_->ExactProb(cur, s);
    }
    if (s == 0) return cur == start_ ? weight : 0.0;

    // Predecessor candidate set C(cur): all v with T(v, cur) possibly > 0,
    // read in place — candidate i < |nbrs| is nbrs[i], and the one past the
    // end is cur itself when the design self-loops.
    const auto nbrs = access.EffectiveNeighbors(cur);
    const size_t num_candidates = nbrs.size() + (self_loops ? 1 : 0);
    if (num_candidates == 0) {
      // Isolated node: only reachable if the walk started (and stayed) here.
      return cur == start_ ? weight : 0.0;
    }

    // Backward pick distribution pi_bw over C(cur).
    size_t pick;
    double pick_prob;
    if (!options_.weighted) {
      pick = rng.NextBounded(num_candidates);
      pick_prob = 1.0 / static_cast<double>(num_candidates);
    } else {
      const double eps = options_.epsilon;
      const double uniform_part = eps / static_cast<double>(num_candidates);
      uint64_t z = 0;
      pick_probs_.resize(num_candidates);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const uint32_t hits = history_->Count(nbrs[i], s - 1);
        pick_probs_[i] = static_cast<double>(hits);
        z += hits;
      }
      if (self_loops) {
        const uint32_t hits = history_->Count(cur, s - 1);
        pick_probs_.back() = static_cast<double>(hits);
        z += hits;
      }
      if (z == 0) {
        // No history at this step yet: fall back to uniform.
        for (double& p : pick_probs_) {
          p = 1.0 / static_cast<double>(num_candidates);
        }
      } else {
        for (double& p : pick_probs_) {
          p = uniform_part + (1.0 - eps) * p / static_cast<double>(z);
        }
      }
      pick = PmfPick(pick_probs_, rng);
      pick_prob = pick_probs_[pick];
    }

    const NodeId v = pick < nbrs.size() ? nbrs[pick] : cur;
    // Corrected Algorithm 1 / 2 weight: T(v, cur) / pi_bw(v). Uniform picks
    // recover |C| * T(v, cur); SRW further reduces to |N(cur)|/|N(v)|
    // (Eq. 21). The query-cheap unbiased factor estimate keeps the product
    // unbiased (factors are independent given the path).
    const double trans = design_->TransitionProbEstimate(access, v, cur, rng);
    if (trans <= 0.0) return 0.0;  // dead predecessor (e.g. MH self mass 0)
    weight *= trans / pick_prob;
    cur = v;
    --s;
  }
}

}  // namespace wnw
