// The per-session view of the simulated online-social-network web interface
// (paper §2.1): the ONLY way samplers may observe the graph. It answers
// local-neighborhood queries ("given node v, return N(v)"), counts the
// paper's cost metric (number of distinct nodes accessed) in a CostMeter,
// and layers per-session caches over a pluggable, thread-safe AccessBackend:
//
//   AccessInterface (this class: CostMeter + per-session caches, NOT
//   thread-safe — one per concurrent trial)
//     -> optional shared QueryCache (cross-session history reuse; hits are
//        free: no backend fetch, no distinct-node cost, no simulated wait)
//       -> optional shared CompletionExecutor (window-bounded in-flight
//          requests; PrefetchAsync overlaps fetches with compute)
//         -> AccessBackend stack (rate limit / latency decorators over the
//            InMemoryBackend restriction simulation; see access/backend.h)
//
// The §6.3.1 access restrictions are implemented by the backend:
//
//   type 1 (kRandomSubset) — each invocation returns a fresh random k-subset,
//   type 2 (kFixedSubset)  — a fixed random k-subset per node,
//   type 3 (kTruncated)    — the first l neighbors (arbitrary but fixed).
//
// Under types 2/3, traversable edges use the paper's bidirectional-check
// semantics: edge (u,v) is usable iff v ∈ T(u) and u ∈ T(v); the probe of
// every candidate is billed — and batched through the executor (or
// FetchBatch), so a latency-simulating backend serves the probes
// concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "access/completion_executor.h"
#include "access/backend.h"
#include "access/flat_map.h"
#include "access/cost_meter.h"
#include "access/query_cache.h"
#include "graph/graph.h"
#include "random/rng.h"

namespace wnw {

/// A sampling session against one simulated OSN. Not thread-safe; create one
/// interface per concurrent trial (the backend, the optional QueryCache, and
/// the optional CompletionExecutor are thread-safe and shared).
class AccessInterface {
 public:
  /// Convenience: builds and owns a private InMemoryBackend (wrapped in a
  /// RateLimitBackend when options.rate_limit is set). This is the
  /// pre-backend constructor every in-process consumer already uses.
  explicit AccessInterface(const Graph* graph, AccessOptions options = {});

  /// The pluggable path: a session view over a shared backend stack, with an
  /// optional cross-session QueryCache and an optional fetch executor. With
  /// an executor, every fetch — single or batched — occupies a slot of its
  /// bounded in-flight window, so concurrent sessions sharing one executor
  /// overlap their round trips while the simulated service never sees more
  /// than `window` open requests.
  explicit AccessInterface(std::shared_ptr<AccessBackend> backend,
                           std::shared_ptr<QueryCache> cache = nullptr,
                           std::shared_ptr<CompletionExecutor> executor =
                               nullptr);

  /// Waits for any still-pending prefetch batches (their tasks reference the
  /// shared backend; the results are folded and discarded).
  ~AccessInterface();

  AccessInterface(const AccessInterface&) = delete;
  AccessInterface& operator=(const AccessInterface&) = delete;

  // --- the web API ---------------------------------------------------------

  /// Local-neighborhood query. The returned span is valid until the next
  /// call for kRandomSubset and stable for other modes.
  std::span<const NodeId> Neighbors(NodeId u);

  /// Degree as visible through the interface (length of the returned list).
  /// Caveat (paper §6.3.1): under kRandomSubset this is min(k, d(u)) and a
  /// mark–recapture estimate should be used for analytics instead.
  uint32_t Degree(NodeId u);

  /// Non-blocking batched warm-up: kicks off the fetch of every
  /// not-yet-cached (and not-yet-pending) node in `nodes` and returns
  /// immediately when an executor is attached, so the session's compute
  /// overlaps the round trips. Results fold into the session caches — and
  /// bill distinct-node cost plus the batch's simulated waiting — on Wait(),
  /// or lazily when a query first touches a pending node. Without an
  /// executor this degrades to the synchronous FetchBatch path. Only call on
  /// node sets the algorithm is guaranteed to query anyway (crawl frontiers,
  /// bidirectional probes, candidate batches); no-op under kRandomSubset
  /// (responses are not stable enough to hold on to).
  void PrefetchAsync(std::span<const NodeId> nodes);

  /// Folds every pending prefetch batch into the session caches, blocking
  /// until their requests complete. No-op when nothing is pending.
  void Wait();

  /// Synchronous batched warm-up: PrefetchAsync + a targeted wait for the
  /// requested nodes (other pending batches stay in flight). Billing is
  /// identical to querying each node individually, but a latency-simulating
  /// backend serves the batch concurrently, so the session waits for the
  /// slowest request instead of the sum.
  void Prefetch(std::span<const NodeId> nodes);

  /// True while at least one PrefetchAsync batch has not been folded.
  bool has_pending_prefetch() const { return !pending_.empty(); }

  // --- traversal view ------------------------------------------------------

  /// The traversable neighbor list of u: full list (kNone), the fixed
  /// subset (types 2/3 without check), or the mutually-visible subset
  /// (types 2/3 with bidirectional check; probing the other endpoints is
  /// itself counted as queries). Unsupported under kRandomSubset (lists are
  /// not stable) — use SampleNeighbor there.
  ///
  /// The answers for the last two distinct nodes asked are kept next to the
  /// session caches: a backward step asks for cur, its predecessor v, cur
  /// again, and the next step starts at v, so one session-cache probe serves
  /// the step. A repeat still counts in total_queries like any other call.
  std::span<const NodeId> EffectiveNeighbors(NodeId u);

  uint32_t EffectiveDegree(NodeId u) {
    return static_cast<uint32_t>(EffectiveNeighbors(u).size());
  }

  /// True when the traversal view is symmetric: v is in
  /// EffectiveNeighbors(u) iff u is in EffectiveNeighbors(v). That holds for
  /// the full lists (kNone) and for types 2/3 under the bidirectional check;
  /// a type 2/3 subset without the check can hide u from v's list.
  bool symmetric_view() const { return symmetric_view_; }

  /// Uniform draw from the traversable neighbors; under kRandomSubset draws
  /// from a fresh server-sampled subset (uniform over N(u) overall).
  /// Returns kInvalidNode for isolated (or fully truncation-hidden) nodes.
  NodeId SampleNeighbor(NodeId u, Rng& rng);

  // --- accounting ----------------------------------------------------------

  /// The paper's cost metric: distinct nodes this session queried the
  /// backend for (shared-cache hits are free).
  uint64_t query_cost() const { return meter_.unique_cost; }

  /// All API invocations including repeat visits (cache hits).
  uint64_t total_queries() const { return meter_.total_queries; }

  /// Simulated seconds this session's requests would have taken (network
  /// latency, retry backoff, rate-limit waiting).
  double waited_seconds() const { return meter_.waited_seconds; }

  /// Full per-session accounting.
  const CostMeter& meter() const { return meter_; }

  bool Seen(NodeId u) const { return seen_[u] != 0; }

  /// Resets per-session counters and caches (folding any pending prefetch
  /// first), and the simulated client state of the backend (rate-limit
  /// windows). Server-side subset choices persist — they model the remote
  /// service. Avoid mid-experiment when the backend is shared with live
  /// sessions.
  void ResetCounters();

  const AccessOptions& options() const { return backend_->options(); }
  AccessBackend& backend() { return *backend_; }
  const AccessBackend& backend() const { return *backend_; }
  const std::shared_ptr<QueryCache>& query_cache() const { return cache_; }
  const std::shared_ptr<CompletionExecutor>& executor() const {
    return executor_;
  }

 private:
  /// One in-flight PrefetchAsync batch: the (sorted, deduped) node set and
  /// the executor handle joining its per-node fetches.
  struct PendingBatch {
    std::vector<NodeId> nodes;
    CompletionExecutor::BatchHandle handle;
  };

  /// Serves u's raw (restricted) neighbor list, billing distinct-node cost
  /// and simulated waiting on the first backend fetch. Does NOT bill a
  /// logical query — callers owning an API entry point do that. Folds the
  /// pending batch containing u first, if any.
  std::span<const NodeId> FetchLocal(NodeId u);

  /// EffectiveNeighbors without the recent-answer slots: the session-cache
  /// probe, and the mutual-visibility filter on a first visit.
  std::span<const NodeId> LookupEffective(NodeId u);

  /// Folds pending_[index] into the session caches and meter.
  void FoldPending(size_t index);

  /// Folds every pending batch containing any of `nodes`.
  void WaitFor(std::span<const NodeId> nodes);

  /// One locally-cached neighbor list. `view` is what queries return; it
  /// points into `owned` when the session had to take a copy (batch replies,
  /// shared-cache hits), or straight into backend arena storage (the CSR
  /// adjacency arena or memoized fixed subsets) when the reply was
  /// arena-backed — the session holds a shared_ptr to the backend, so arena
  /// spans outlive every entry. Entries live in a flat open-addressed map
  /// whose growth MOVES them, but a vector move keeps its heap buffer, so
  /// `view` (which points into `owned` or the arena, never at the entry
  /// itself) stays valid for the session.
  struct CachedList {
    std::span<const NodeId> view;
    std::vector<NodeId> owned;  // backs `view` when non-empty
  };

  /// Stores a copied list as the session entry for u (no cost billing).
  std::span<const NodeId> StoreLocal(NodeId u, std::vector<NodeId>&& list);

  /// Stores an arena-backed span as the session entry for u — the
  /// span-stable fast path: no per-session copy of the neighbor list.
  std::span<const NodeId> StoreLocalView(NodeId u, std::span<const NodeId> view);

  /// Stores a fetched list in the session (and shared) caches and bills
  /// distinct-node cost.
  void Admit(NodeId u, std::vector<NodeId>&& list);

  /// Admit for arena-backed replies: same billing and shared-cache insert,
  /// but the session entry is a span into backend storage, not a copy.
  void AdmitView(NodeId u, std::span<const NodeId> view);

  std::shared_ptr<AccessBackend> backend_;
  std::shared_ptr<QueryCache> cache_;
  std::shared_ptr<CompletionExecutor> executor_;
  bool cacheable_;       // backend_->deterministic()
  bool symmetric_view_;  // fixed by backend_->options()

  CostMeter meter_;
  std::vector<uint8_t> seen_;

  std::vector<NodeId> scratch_;     // kRandomSubset response buffer
  std::vector<NodeId> batch_buf_;   // prefetch request assembly (reused)
  std::vector<PendingBatch> pending_;
  std::unordered_set<NodeId> pending_nodes_;  // union over pending_
  FlatNodeMap<CachedList> local_cache_;
  FlatNodeMap<std::vector<NodeId>> effective_cache_;

  /// The last two distinct EffectiveNeighbors answers, most recent first.
  /// Filled only when cacheable_: the spans point into the session caches
  /// (or backend arenas), which keep them valid until ResetCounters.
  struct RecentList {
    NodeId node = kInvalidNode;
    std::span<const NodeId> list;
  };
  std::array<RecentList, 2> recent_;
};

/// Mark–recapture degree estimate under kRandomSubset (paper §6.3.1 cites
/// Petersen-style estimators): issues `calls` queries and estimates
/// d ≈ k^2 * (#call pairs) / (total pairwise overlap). Returns the visible
/// list length when the node is not truncated (exact).
double EstimateDegreeMarkRecapture(AccessInterface& access, NodeId u,
                                   int calls);

}  // namespace wnw
