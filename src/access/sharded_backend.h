// The sharded origin: N vertex-partitioned backends behind one routing
// front, modeling a horizontally scaled OSN service (one endpoint per
// shard). This is what lets walker pools scale past one lock — the
// motivation in the paper's §2.1 cost model is that the *client* is the
// bottleneck, which only stays true while the simulated server can keep up.
//
// Each shard is an independent origin server with its own
//
//   - CSR shard (ShardedGraph: the vertices it owns plus their full
//     neighbor lists),
//   - RestrictionServer state and randomness stream (responses are keyed on
//     (seed, node, call#), so they are bit-identical to the unsharded
//     InMemoryBackend's — sharding is invisible to samplers),
//   - service FIFO: by default each shard serves ONE request at a time (a
//     single-threaded origin server). A request to a busy shard waits in
//     the shard's FIFO and starts when the one in service completes — real
//     wall-clock queueing when the latency decorator really sleeps — while
//     different shards serve in parallel. A synchronous fetch is a wait on
//     the same completion path, so a shard never serves two requests at
//     once whichever path they arrive by; a batch's sub-batch for a shard
//     is one turn in its FIFO (its members overlap, and the shard frees up
//     when the last one completes). shards=1
//     therefore IS the "every walker serializes on a single origin"
//     baseline, and shards=N divides the queueing by the partition balance
//     (see ShardedGraph::MaxEdgeImbalance).
//   - latency decorator stack (independent RTT/jitter/failure RNG per
//     shard; one deadline timer shared by all shards) and rate limiter (the
//     §1 query budget applies per endpoint).
//
// Billing: FetchBatch splits into per-shard sub-batches, served
// concurrently across shards, and joins them in a BatchLatch — the one
// batch-billing fold (access/backend.h): the batch pays the slowest
// *shard*, and serial stalls (rate-limit tokens) bill against each shard's
// own limiter, summing within a shard and overlapping across shards.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "access/backend.h"
#include "access/decorators.h"
#include "graph/sharded_graph.h"

namespace wnw {

struct ShardedBackendOptions {
  /// Restriction / rate-limit / server-seed scenario. The same options an
  /// InMemoryBackend takes; responses are identical for identical seeds.
  AccessOptions access;

  /// Per-shard simulated network decorator; shard s seeds its RNG from
  /// Mix64(latency.seed ^ s) so the streams are independent.
  std::optional<LatencyConfig> latency;

  /// Each shard serves one request at a time (single-threaded origin
  /// server): requests to the same shard wait in its FIFO, which is genuine
  /// wall-clock queueing when the latency decorator really sleeps. False
  /// models an infinitely concurrent server per shard.
  bool serial_service = true;

  /// Telemetry label for the per-shard origin servers: "memory" for
  /// heap-backed shards, "snapshot" when the shards are mmap'd from a
  /// snapshot file. Cosmetic only — responses are identical either way.
  std::string origin_name = "memory";
};

class ShardedBackend final : public AccessBackend {
 public:
  ShardedBackend(std::shared_ptr<const ShardedGraph> graph,
                 ShardedBackendOptions options = {})
      : ShardedBackend(std::move(graph), std::move(options), nullptr) {}

  /// e.g. "sharded[hash:8](latency(memory))" — partition, shard count, and
  /// one shard's decorator stack.
  std::string_view name() const override { return name_; }
  uint64_t num_nodes() const override { return graph_->num_nodes(); }
  const AccessOptions& options() const override { return options_.access; }
  const ShardedBackend* AsSharded() const override { return this; }
  Result<FetchReply> FetchNeighbors(NodeId u) override {
    return AwaitCompletion(u);
  }

  /// Routes to the owning shard's stack; under serial_service the request
  /// waits in the shard's FIFO and returns at once, starting when the
  /// shard frees up.
  void FetchNeighborsCompletion(NodeId u, CompletionCallback done) override;

  /// Checks every node's range, then serves each shard's sub-batch as one
  /// turn of that shard's FIFO, all shards at once, billed by BatchLatch.
  Result<BatchReply> FetchBatch(std::span<const NodeId> nodes) override;
  void ResetSimulation() override;

  int num_shards() const { return graph_->num_shards(); }
  ShardPartition partition() const { return graph_->partition(); }
  const ShardedGraph& graph() const { return *graph_; }
  int ShardOf(NodeId u) const { return graph_->ShardOf(u); }

  /// Cumulative per-shard service telemetry (across all sessions):
  /// requests served and serial rate-limit stall seconds billed.
  struct ShardCounters {
    uint64_t fetches = 0;
    double stall_seconds = 0.0;
  };
  std::vector<ShardCounters> CountersSnapshot() const;

 private:
  struct Shard;

  // Tests build shards whose origin is wrapped (to watch what each shard
  // serves) through this constructor; `wrap_origin(s, origin)` replaces
  // shard s's origin under its decorators and must answer as it does.
  friend class ShardedBackendTestPeer;
  using OriginWrapper = std::function<std::shared_ptr<AccessBackend>(
      int, std::shared_ptr<AccessBackend>)>;
  ShardedBackend(std::shared_ptr<const ShardedGraph> graph,
                 ShardedBackendOptions options, OriginWrapper wrap_origin);

  /// One request of a service turn: the node and its caller-side slot.
  struct Member {
    NodeId node;
    size_t slot;
  };
  using MemberCallback = std::function<void(size_t, Result<FetchReply>)>;

  /// Serves `members` on shard s as ONE turn of its FIFO (under
  /// serial_service): all of them start together, and the shard frees up
  /// when the last one completes. `done(slot, reply)` fires per member.
  void Serve(size_t s, std::vector<Member> members, MemberCallback done);

  std::shared_ptr<const ShardedGraph> graph_;
  ShardedBackendOptions options_;
  std::string name_;
  // Shared with in-flight completions, which may outlive this object's
  // other state by a few instructions on the completing thread.
  std::vector<std::shared_ptr<Shard>> shards_;
};

}  // namespace wnw
