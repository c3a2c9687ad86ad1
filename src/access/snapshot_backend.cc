#include "access/snapshot_backend.h"

#include <utility>

#include "access/sharded_backend.h"
#include "util/check.h"

namespace wnw {

SnapshotBackend::SnapshotBackend(LoadedSnapshot loaded, AccessOptions options)
    : graph_(std::move(loaded.graph)),
      original_ids_(std::move(loaded.original_id)),
      server_(options) {}

Result<std::shared_ptr<SnapshotBackend>> SnapshotBackend::Open(
    const std::string& path, AccessOptions options) {
  WNW_ASSIGN_OR_RETURN(LoadedSnapshot loaded, LoadGraphSnapshot(path));
  return std::make_shared<SnapshotBackend>(std::move(loaded), options);
}

Result<FetchReply> SnapshotBackend::FetchNeighbors(NodeId u) {
  if (u >= graph_.num_nodes()) {
    return NodeOutOfRangeError(u, graph_.num_nodes());
  }
  FetchReply reply;
  server_.Serve(u, graph_.Neighbors(u), &reply);
  return reply;
}

Result<std::shared_ptr<AccessBackend>> BuildSnapshotBackendStack(
    const BackendStackOptions& options) {
  WNW_CHECK(!options.snapshot.empty());
  WNW_ASSIGN_OR_RETURN(
      LoadedSnapshot loaded,
      LoadGraphSnapshot(options.snapshot,
                        {.verify_checksum = options.snapshot_verify}));

  if (options.shards >= 1) {
    // Prefer the file's own per-shard sections: the sharded origin then
    // serves every shard straight from the mapping. A count/partitioner
    // mismatch falls back to re-partitioning the loaded graph in memory —
    // same responses (partitioners are deterministic), heap residency.
    std::shared_ptr<const ShardedGraph> sharded = loaded.sharded;
    if (sharded == nullptr || sharded->num_shards() != options.shards ||
        sharded->partition() != options.partition) {
      WNW_ASSIGN_OR_RETURN(
          ShardedGraph repartitioned,
          ShardedGraph::FromGraph(loaded.graph, options.shards,
                                  options.partition));
      sharded = std::make_shared<const ShardedGraph>(std::move(repartitioned));
    }
    return std::shared_ptr<AccessBackend>(std::make_shared<ShardedBackend>(
        std::move(sharded),
        ShardedBackendOptions{.access = options.access,
                              .latency = options.latency,
                              .origin_name = "snapshot"}));
  }

  return DecorateOrigin(
      std::make_shared<SnapshotBackend>(std::move(loaded), options.access),
      options.access, options.latency);
}

}  // namespace wnw
