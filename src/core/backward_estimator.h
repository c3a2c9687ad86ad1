// The ESTIMATE primitives (paper §5.1 and §5.3): unbiased estimation of
// p_t(u) — the probability that the forward walk design occupies u at step t
// — via a single backward random walk from u.
//
// UNBIASED-ESTIMATE (Algorithm 1). p_t(u) = sum_v p_{t-1}(v) T(v, u) over
// the predecessor candidates v (neighbors of u, plus u itself when the
// design self-loops). Picking v uniformly from the candidate set C(u) and
// returning |C(u)| * T(v, u) * estimate(p_{t-1}(v)) is unbiased by
// conditional independence (Eq. 22-24).
//
//   [Paper deviation] Algorithm 1's line 5 prints the weight "|N(u)| p_uu'".
//   That evaluates to 1 for SRW, contradicting the derivation in Eq. 21
//   (|N(u)|/|N(u')|); the correct generic weight uses the transition
//   probability INTO u, i.e. T(u', u). We implement the corrected form;
//   tests verify exact unbiasedness against matrix powers.
//
// WS-BW (Algorithm 2): instead of a uniform pick, the backward step is drawn
// from pi_bw(v) = eps/|C| + (1-eps) * hits(v, t-1)/Z, where hits counts how
// often previous forward walks occupied v at step t-1 (Z normalizes over the
// candidate set). Importance weighting divides by pi_bw(v) instead of 1/|C|,
// preserving unbiasedness (the eps floor keeps the support full) while
// steering the backward walk toward high-probability predecessors — the
// paper's second variance-reduction heuristic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "access/access_interface.h"
#include "access/flat_map.h"
#include "core/crawler.h"
#include "mcmc/transition.h"
#include "random/rng.h"
#include "util/check.h"

namespace wnw {

/// Per-step visit counts n_{u,s} accumulated over all forward walks issued
/// from the same start (paper §5.3's n_{u', t-1} statistics).
///
/// WS-BW asks for the count of every predecessor candidate at every
/// backward step, and most candidates were never visited by a forward walk.
/// So the counts live in one node-major table (a row of walk_length + 1
/// counts per recorded node, found through one FlatNodeMap), and a
/// presence bitset in front of it answers most misses without a probe. The
/// bitset holds at least kFilterBitsPerNode bits per recorded node (one
/// Fibonacci-hashed bit each, so at most ~1.5% of unrecorded nodes get
/// through) and is rebuilt at twice the size from the row -> node list when
/// the history outgrows it. Both scale with the history, never with the
/// graph.
class HitCountHistory {
 public:
  explicit HitCountHistory(int walk_length);

  /// Records one forward trajectory (path[s] = node at step s; the path must
  /// span exactly walk_length steps).
  void RecordWalk(std::span<const NodeId> path);

  uint32_t Count(NodeId u, int step) const {
    WNW_CHECK(step >= 0 && step <= walk_length_);
    if (!MaybeRecorded(u)) return 0;
    const uint32_t* row = rows_.Find(u);
    return row == nullptr ? 0 : counts_[*row * stride() + step];
  }
  uint64_t num_walks() const { return num_walks_; }
  int walk_length() const { return walk_length_; }

 private:
  static constexpr size_t kFilterBitsPerNode = 64;

  size_t stride() const { return static_cast<size_t>(walk_length_) + 1; }
  size_t FilterBit(NodeId u) const {
    return static_cast<size_t>(FibonacciHash(u) >> filter_shift_);
  }
  bool MaybeRecorded(NodeId u) const {
    const size_t bit = FilterBit(u);
    return ((filter_[bit >> 6] >> (bit & 63)) & 1) != 0;
  }
  void SetFilterBit(NodeId u) {
    const size_t bit = FilterBit(u);
    filter_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  // Appends a zeroed row for `u` and returns its index.
  uint32_t AddRow(NodeId u);

  int walk_length_;
  uint64_t num_walks_ = 0;
  FlatNodeMap<uint32_t> rows_;    // node -> row index
  std::vector<NodeId> nodes_;     // row index -> node
  std::vector<uint32_t> counts_;  // [row * stride() + step]
  std::vector<uint64_t> filter_;  // presence bits, a power of two >= 64
  int filter_shift_;              // 64 - log2(filter bits)
};

struct BackwardWalkOptions {
  /// False: Algorithm 1's uniform backward pick. True: WS-BW weighting.
  bool weighted = false;
  /// WS-BW eps floor; ignored when weighted == false.
  double epsilon = 0.1;
};

/// One-shot unbiased estimator of p_t(u). The variance-reduction state
/// (crawl ball, hit history) is injected; the estimator itself only keeps a
/// memo of WS-BW pick distributions, so one estimator serves one thread at
/// a time, and every access passed to it must view the same origin.
///
/// A backward step reads N(cur), draws a predecessor v, and asks the design
/// for T(v, cur). Through AccessInterface's recent-answer slots that costs
/// one session-cache probe (for v); the repeats of N(cur) and N(v) in the
/// step and the next one are served from the slots. When v was drawn from
/// N(cur) and the view is symmetric, cur is in N(v) by construction, so the
/// design's T(v, cur) skips its adjacency search (TransitionProbOnEdge).
///
/// The WS-BW distribution over C(cur) depends only on (cur, s) and the hit
/// history, which changes only when a forward walk is recorded. So each
/// (cur, s) distribution is computed once per history version and kept, as
/// the exact doubles PmfPick saw; a repeat pick draws from the same values
/// with the same single RNG draw. Every memo slot is tagged with the
/// history version (num_walks) it was filled in, so a new forward walk
/// empties the memo in O(1); it holds only the pairs seen since then.
class BackwardEstimator {
 public:
  /// `ball` (nullable): terminate backward walks at step index <= radius
  /// with exact probabilities (initial crawling heuristic).
  /// `history` (nullable): WS-BW hit counts; required when
  /// options.weighted is true.
  BackwardEstimator(const TransitionDesign* design, NodeId start,
                    BackwardWalkOptions options = {},
                    const CrawlBall* ball = nullptr,
                    const HitCountHistory* history = nullptr);

  /// One backward-walk realization of the unbiased estimator of p_t(u).
  /// Queries through `access` are billed to the caller's session.
  double EstimateOnce(AccessInterface& access, NodeId u, int t,
                      Rng& rng) const;

  NodeId start() const { return start_; }

 private:
  // One memo entry: the distribution for `key` = (cur << 32) | s starts at
  // pick_weights_[offset]; its length is |C(cur)|. Slots tagged with
  // another history version than memo_version_ are empty.
  struct PickMemoSlot {
    uint64_t key = 0;
    uint64_t version = 0;
    uint32_t offset = 0;
  };

  // The WS-BW pick distribution over C(cur) at step s (candidates `nbrs`,
  // then cur itself when the design self-loops), computed on first use in
  // the current history version.
  std::span<const double> PickWeights(std::span<const NodeId> nbrs,
                                      NodeId cur, int s) const;
  // Empties the memo when the history has moved.
  void SyncMemo() const;
  size_t MemoHome(uint64_t key) const;
  void GrowMemo() const;

  const TransitionDesign* design_;
  NodeId start_;
  BackwardWalkOptions options_;
  const CrawlBall* ball_;
  const HitCountHistory* history_;
  bool self_loops_;

  mutable std::vector<PickMemoSlot> memo_slots_;  // a power of two, or empty
  mutable size_t memo_live_ = 0;                  // slots of this version
  mutable int memo_shift_ = 64;                   // 64 - log2(slots)
  // history_->num_walks() + 1 when the memo was last emptied; 0 before the
  // first weighted call, so default slots never look live.
  mutable uint64_t memo_version_ = 0;
  mutable std::vector<double> pick_weights_;  // this version's values
};

}  // namespace wnw
