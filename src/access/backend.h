// The pluggable access backend: where neighbor-list queries are actually
// answered. The paper's whole cost model lives in the OSN web interface
// (§2.1 local-neighborhood queries, §6.3.1 access restrictions), so the
// backend is the system's hottest seam:
//
//   session view (AccessInterface: CostMeter + per-session caches)
//     -> optional shared QueryCache (cross-session history reuse)
//       -> decorator backends (rate limiting, simulated latency/failures)
//         -> origin backend (InMemoryBackend: Graph + restriction
//            simulation; or ShardedBackend: N vertex-partitioned origins,
//            each with its own lock, RNG stream, limiter, and latency stack
//            — see access/sharded_backend.h)
//
// Backends are thread-safe (one simulated remote service shared by many
// concurrent sampling sessions) and Result<>-based; the decorators report the
// simulated wall-clock seconds each request would have taken, which is how
// "walk, not wait" tradeoffs become measurable.
//
// The fetch contract: an origin implements the synchronous FetchNeighbors
// (and inherits an inline FetchNeighborsCompletion); a decorator implements
// FetchNeighborsCompletion and makes its FetchNeighbors the one-line wait
// AwaitCompletion(u). A batch is one completion per node joined by a
// BatchLatch, whose fold is the only batch-billing rule: the executor's
// batches and every synchronous FetchBatch bill through it.
//
// Replies are arena-backed: the origin answers with a span into stable
// server-side storage (the CSR adjacency arena, or the memoized fixed
// subsets) and only materializes an owned copy when a restriction produces a
// fresh list per call (kRandomSubset). The hot path therefore fetches
// without allocating.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "access/rate_limiter.h"
#include "graph/graph.h"
#include "random/rng.h"
#include "util/status.h"

namespace wnw {

enum class NeighborRestriction {
  kNone = 0,      // full neighbor lists (the common case in the paper)
  kRandomSubset,  // type 1: fresh random k-subset per invocation
  kFixedSubset,   // type 2: a fixed random k-subset per node
  kTruncated,     // type 3: the first l neighbors (arbitrary but fixed)
};

/// The simulated-OSN scenario: which §6.3.1 restriction the server imposes
/// and how the edge-traversal semantics behave under it.
struct AccessOptions {
  NeighborRestriction restriction = NeighborRestriction::kNone;

  /// k (types 1/2) or l (type 3); ignored for kNone. Lists shorter than the
  /// cap are returned in full.
  uint32_t max_neighbors = 0;

  /// §6.3.1: only traverse mutually visible edges (types 2/3).
  bool bidirectional_check = true;

  /// Optional rate-limit simulation ({0,0} disables); applied as a
  /// RateLimitBackend decorator by BuildBackendStack. A sharded origin gives
  /// every shard its own limiter with this budget (one endpoint per shard).
  RateLimitConfig rate_limit;

  /// Server-side randomness (type-1 subsets, type-2 per-node subsets). All
  /// subset draws are keyed on (seed, node, per-node call index), so the
  /// answers a node gets are invariant to sharding and to interleaving with
  /// other nodes' queries.
  uint64_t seed = 0x5eedu;
};

/// One answered neighbor query. `neighbors` views stable server-side storage
/// (valid for the lifetime of the origin backend) unless the server had to
/// materialize a fresh list, in which case `owned` backs it — moving the
/// reply keeps the view valid either way, which is why the struct is
/// move-only. `simulated_seconds` is the wall-clock time this request would
/// have taken against the real service (network round trip, retry backoff,
/// rate-limit waiting); the in-memory origin reports 0. `serial_seconds` is
/// the subset of `simulated_seconds` that is server-enforced serially and
/// does NOT parallelize across concurrent dispatch (rate-limit token
/// stalls). BatchLatch folds a batch's replies by origin `shard`: max over
/// shards of (max(parallel part) + sum(shard's serial part)).
struct FetchReply {
  std::span<const NodeId> neighbors;
  std::vector<NodeId> owned;  // backs `neighbors` when non-empty
  double simulated_seconds = 0.0;
  double serial_seconds = 0.0;

  /// Origin shard that served the request (0 for unsharded origins).
  int32_t shard = 0;

  FetchReply() = default;
  FetchReply(FetchReply&&) = default;
  FetchReply& operator=(FetchReply&&) = default;
  FetchReply(const FetchReply&) = delete;
  FetchReply& operator=(const FetchReply&) = delete;

  /// Points `neighbors` at a fresh owned list.
  void SetOwned(std::vector<NodeId> list) {
    owned = std::move(list);
    neighbors = owned;
  }

  /// The neighbor list as an independent vector: moves `owned` out when the
  /// reply owns its storage, copies the arena view otherwise.
  std::vector<NodeId> TakeNeighbors() {
    if (!owned.empty()) {
      std::vector<NodeId> list = std::move(owned);
      owned.clear();
      neighbors = {};
      return list;
    }
    return std::vector<NodeId>(neighbors.begin(), neighbors.end());
  }
};

/// One answered batch. `lists` is parallel to the requested node span;
/// `simulated_seconds` is the time until the *whole* batch completed (max
/// over origin shards of each shard's own completion time). `shards`
/// parallels `lists` with the origin shard that served each request, and
/// `shard_stalls[s]` accumulates the serial (rate-limit) stall seconds shard
/// s billed this batch — the per-shard halves of the session meter.
struct BatchReply {
  std::vector<std::vector<NodeId>> lists;
  double simulated_seconds = 0.0;
  std::vector<int32_t> shards;       // parallel to lists
  std::vector<double> shard_stalls;  // indexed by shard, may be short/empty

  /// Adds serial stall seconds to shard s's bucket (no-op for seconds <= 0).
  void BillStall(int32_t s, double seconds) {
    if (seconds <= 0.0) return;
    if (static_cast<size_t>(s) >= shard_stalls.size()) {
      shard_stalls.resize(static_cast<size_t>(s) + 1, 0.0);
    }
    shard_stalls[static_cast<size_t>(s)] += seconds;
  }
};

class ShardedBackend;
class RemoteBackend;

/// The OutOfRange status every origin serves for a node outside its domain.
Status NodeOutOfRangeError(NodeId u, uint64_t num_nodes);

/// Abstract neighbor-query service. Implementations and decorators must be
/// thread-safe: one backend instance models one remote service shared by all
/// concurrent sampling sessions. Per-session accounting (the paper's
/// distinct-node cost) lives in AccessInterface, not here.
class AccessBackend {
 public:
  virtual ~AccessBackend() = default;

  /// The sharded origin behind this stack, if any — decorators forward to
  /// their inner backend, so wrapping a ShardedBackend in rate-limit or
  /// latency decorators keeps its shard count discoverable (session
  /// telemetry and spec-conflict checks rely on this). nullptr for
  /// unsharded origins.
  virtual const ShardedBackend* AsSharded() const { return nullptr; }

  /// The remote-service client behind this stack, if any — same forwarding
  /// convention as AsSharded(), so session telemetry (remote RPC/retry/byte
  /// counters) sees through decorator wrappers. nullptr for local stacks.
  virtual const RemoteBackend* AsRemote() const { return nullptr; }

  /// Composed stack name, e.g. "ratelimit(latency(memory))" or
  /// "sharded[hash:8](latency(memory))".
  virtual std::string_view name() const = 0;

  /// Node-id domain served by this backend.
  virtual uint64_t num_nodes() const = 0;

  /// The origin server's scenario descriptor (restriction semantics).
  /// Decorators forward to the wrapped backend.
  virtual const AccessOptions& options() const = 0;

  /// True when responses are stable per node — the precondition for any
  /// caching layer. False under kRandomSubset (fresh subsets per call).
  bool deterministic() const {
    return options().restriction != NeighborRestriction::kRandomSubset;
  }

  /// Local-neighborhood query for one node. Origins answer it directly;
  /// decorators implement it as `return AwaitCompletion(u);`.
  virtual Result<FetchReply> FetchNeighbors(NodeId u) = 0;

  /// Completion callback for FetchNeighborsCompletion: invoked exactly once
  /// with the reply, possibly on a thread of the backend's own (an event
  /// loop, a deadline timer) and possibly before the submission returns
  /// (inline completion). Must not block.
  using CompletionCallback = std::function<void(Result<FetchReply>)>;

  /// Callback-completed counterpart of FetchNeighbors, and the only way
  /// CompletionExecutor dispatches. The default adapter runs the
  /// synchronous fetch on the calling thread and completes inline — right
  /// for origins that answer from memory. A backend whose fetch waits (a
  /// network round trip, a simulated sleep) overrides it to return without
  /// waiting and complete later: only then do its requests overlap under an
  /// executor window. Decorators implement their behaviour here, around
  /// their inner backend's completion.
  virtual void FetchNeighborsCompletion(NodeId u, CompletionCallback done);

  /// True when FetchNeighbors can sleep the serving thread for real wall
  /// time. Informational: nothing in the library reads it; every backend is
  /// dispatched through FetchNeighborsCompletion.
  virtual bool may_block() const { return false; }

  /// Batched query: semantically equivalent to one FetchNeighbors per node,
  /// but served concurrently. Default: one FetchNeighborsCompletion per node
  /// into a BatchLatch, then its Wait() — slept requests overlap on their
  /// deadline timer, and the batch bills by the latch's fold. On a failed
  /// request the rest still complete and the first error is returned.
  virtual Result<BatchReply> FetchBatch(std::span<const NodeId> nodes);

  /// Resets simulated client-facing state (rate-limit windows, latency RNG
  /// position). Server-side subset choices persist — they model the remote
  /// service. Default no-op.
  virtual void ResetSimulation() {}

 protected:
  /// FetchNeighborsCompletion(u), waited for on the calling thread: the
  /// whole synchronous fetch of a decorator.
  Result<FetchReply> AwaitCompletion(NodeId u);
};

/// The join of one batch's per-request completions, and the one place a
/// batch is billed. Slots fill in any order from any thread; Wait() folds
/// them into a BatchReply whose lists parallel the request order. Replies
/// group by the origin shard that served them: within a shard the batch
/// completes when its slowest parallelizable request does, plus every
/// serial stall (rate-limit tokens) of that shard's own limiter; across
/// shards those completion times overlap, so the batch pays the slowest
/// shard. Unsharded origins put every reply in shard 0, which reduces to
/// max(parallel) + sum(serial).
class BatchLatch {
 public:
  explicit BatchLatch(size_t size);

  /// The completion for request i: fills slot i (see Fill). The callback
  /// holds the latch, so a latch nobody waits on stays valid until its last
  /// request completes.
  static AccessBackend::CompletionCallback Slot(
      std::shared_ptr<BatchLatch> latch, size_t i);

  /// Stores request i's reply; the last fill wakes the waiter. Each slot is
  /// filled exactly once.
  void Fill(size_t i, Result<FetchReply> reply);

  /// Blocks until every slot is filled, then folds them; at most one call.
  /// A failed request fails the batch with the first error (in request
  /// order).
  Result<BatchReply> Wait();

  size_t size() const { return slots_.size(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;  // guarded by mu_
  std::vector<std::optional<Result<FetchReply>>> slots_;
};

/// The §6.3.1 restriction simulation, shared by every origin backend
/// (InMemoryBackend and the per-shard origins of ShardedBackend). Responses
/// are keyed on (options.seed, node, per-node call index) only, so two
/// servers built from the same options answer any per-node call sequence
/// identically — which is what makes sharding invisible to samplers.
/// Thread-safe.
class RestrictionServer {
 public:
  explicit RestrictionServer(AccessOptions options);

  const AccessOptions& options() const { return options_; }

  /// Serves the restricted view of `full` (node u's complete neighbor list,
  /// which must come from arena-stable storage) into *reply: an arena span
  /// when the response is the full list or a memoized fixed subset, an owned
  /// list for fresh per-call subsets.
  void Serve(NodeId u, std::span<const NodeId> full, FetchReply* reply);

 private:
  // The fixed (type 2/3) truncated list for u, built on first use. Stored
  // values are address-stable (node-based map), so served spans stay valid
  // for the server's lifetime. Caller must hold mu_.
  const std::vector<NodeId>& TruncatedList(NodeId u,
                                           std::span<const NodeId> full);

  AccessOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<NodeId, std::vector<NodeId>> fixed_subsets_;
  std::unordered_map<NodeId, uint64_t> random_subset_calls_;  // guarded by mu_
};

/// The origin server: today's Graph plus the §6.3.1 restriction simulation.
/// Thread-safe. Unrestricted replies are spans straight into the CSR
/// adjacency arena — no copy, no allocation.
class InMemoryBackend final : public AccessBackend {
 public:
  explicit InMemoryBackend(const Graph* graph, AccessOptions options = {});

  std::string_view name() const override { return "memory"; }
  uint64_t num_nodes() const override { return graph_->num_nodes(); }
  const AccessOptions& options() const override { return server_.options(); }
  Result<FetchReply> FetchNeighbors(NodeId u) override;

  const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;
  RestrictionServer server_;
};

}  // namespace wnw
