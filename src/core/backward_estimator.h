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

/// One-shot unbiased estimator of p_t(u). Stateless across calls apart from
/// a reused scratch buffer, so one estimator serves one thread at a time;
/// the variance-reduction state (crawl ball, hit history) is injected.
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
  const TransitionDesign* design_;
  NodeId start_;
  BackwardWalkOptions options_;
  const CrawlBall* ball_;
  const HitCountHistory* history_;
  // WS-BW pick distribution over the current candidate set, reused across
  // steps and calls so a weighted step allocates nothing.
  mutable std::vector<double> pick_probs_;
};

}  // namespace wnw
