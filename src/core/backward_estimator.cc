#include "core/backward_estimator.h"

#include <bit>

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
      history_(history),
      self_loops_(design->has_self_loops()) {
  WNW_CHECK(design_ != nullptr);
  if (options_.weighted) {
    WNW_CHECK(history_ != nullptr);
    WNW_CHECK(options_.epsilon > 0.0 && options_.epsilon <= 1.0);
  }
  if (ball_ != nullptr) WNW_CHECK(ball_->start() == start);
}

void BackwardEstimator::SyncMemo() const {
  const uint64_t version = history_->num_walks() + 1;
  if (version == memo_version_) return;
  memo_version_ = version;
  memo_live_ = 0;
  pick_weights_.clear();
}

size_t BackwardEstimator::MemoHome(uint64_t key) const {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> memo_shift_) &
         (memo_slots_.size() - 1);
}

void BackwardEstimator::GrowMemo() const {
  const size_t capacity = memo_slots_.empty() ? 16 : memo_slots_.size() * 2;
  std::vector<PickMemoSlot> old = std::move(memo_slots_);
  memo_slots_.assign(capacity, PickMemoSlot{});
  memo_shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const PickMemoSlot& slot : old) {
    if (slot.version != memo_version_) continue;
    size_t i = MemoHome(slot.key);
    while (memo_slots_[i].version == memo_version_) i = (i + 1) & mask;
    memo_slots_[i] = slot;
  }
}

std::span<const double> BackwardEstimator::PickWeights(
    std::span<const NodeId> nbrs, NodeId cur, int s) const {
  const size_t num_candidates = nbrs.size() + (self_loops_ ? 1 : 0);
  const uint64_t key = (uint64_t{cur} << 32) | static_cast<uint32_t>(s);
  if ((memo_live_ + 1) * 8 > memo_slots_.size() * 7) GrowMemo();
  const size_t mask = memo_slots_.size() - 1;
  size_t i = MemoHome(key);
  for (; memo_slots_[i].version == memo_version_; i = (i + 1) & mask) {
    if (memo_slots_[i].key == key) {
      return {pick_weights_.data() + memo_slots_[i].offset, num_candidates};
    }
  }

  // First pick at (cur, s) in this history version.
  const size_t offset = pick_weights_.size();
  memo_slots_[i] = {key, memo_version_, static_cast<uint32_t>(offset)};
  ++memo_live_;
  pick_weights_.resize(offset + num_candidates);
  const std::span<double> probs(pick_weights_.data() + offset, num_candidates);
  uint64_t z = 0;
  for (size_t c = 0; c < nbrs.size(); ++c) {
    const uint32_t hits = history_->Count(nbrs[c], s - 1);
    probs[c] = static_cast<double>(hits);
    z += hits;
  }
  if (self_loops_) {
    const uint32_t hits = history_->Count(cur, s - 1);
    probs.back() = static_cast<double>(hits);
    z += hits;
  }
  if (z == 0) {
    // No history at this step yet: fall back to uniform.
    for (double& p : probs) p = 1.0 / static_cast<double>(num_candidates);
  } else {
    const double eps = options_.epsilon;
    const double uniform_part = eps / static_cast<double>(num_candidates);
    for (double& p : probs) {
      p = uniform_part + (1.0 - eps) * p / static_cast<double>(z);
    }
  }
  return probs;
}

double BackwardEstimator::EstimateOnce(AccessInterface& access, NodeId u,
                                       int t, Rng& rng) const {
  WNW_CHECK(t >= 0);
  if (options_.weighted) SyncMemo();
  const bool symmetric = access.symmetric_view();
  double weight = 1.0;
  NodeId cur = u;
  int s = t;

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
    const size_t num_candidates = nbrs.size() + (self_loops_ ? 1 : 0);
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
      const std::span<const double> probs = PickWeights(nbrs, cur, s);
      pick = PmfPick(probs, rng);
      pick_prob = probs[pick];
    }

    // Corrected Algorithm 1 / 2 weight: T(v, cur) / pi_bw(v). Uniform picks
    // recover |C| * T(v, cur); SRW further reduces to |N(cur)|/|N(v)|
    // (Eq. 21). The query-cheap unbiased factor estimate keeps the product
    // unbiased (factors are independent given the path). A predecessor
    // drawn from N(cur) in a symmetric view lists cur, so the design need
    // not search N(v) for it.
    const bool from_nbrs = pick < nbrs.size();
    const NodeId v = from_nbrs ? nbrs[pick] : cur;
    const double trans =
        from_nbrs && symmetric && v != cur
            ? design_->TransitionProbOnEdge(access, v, cur, rng)
            : design_->TransitionProbEstimate(access, v, cur, rng);
    if (trans <= 0.0) return 0.0;  // dead predecessor (e.g. MH self mass 0)
    weight *= trans / pick_prob;
    cur = v;
    --s;
  }
}

}  // namespace wnw
