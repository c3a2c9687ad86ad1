// Mutable edge accumulator that produces an immutable CSR Graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace wnw {

/// Collects undirected edges, then Build() sorts, deduplicates, and packs
/// them into CSR form. Duplicate edges and (by default) self-loops are
/// dropped silently — web crawls routinely contain both.
///
/// Each edge is held as one packed key (min << 32) | max (graph/edge_sort.h),
/// 8 bytes an edge, and Build() radix-sorts the keys with SortEdgeKeys, the
/// same kernel the streaming ingest sorts its runs with. The sort's scratch
/// (another 8 bytes an edge) is mapped for the sort and unmapped after it.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes, bool allow_self_loops = false)
      : num_nodes_(num_nodes), allow_self_loops_(allow_self_loops) {}

  /// Adds edge {u, v}. Returns InvalidArgument if an endpoint is out of
  /// range; silently skips self-loops unless allowed.
  Status AddEdge(NodeId u, NodeId v);

  /// Grows the node count (ids are dense [0, n)); useful for generators that
  /// add nodes incrementally.
  void EnsureNode(NodeId u);

  NodeId num_nodes() const { return num_nodes_; }
  uint64_t num_pending_edges() const { return edges_.size(); }

  /// Builds the graph. The builder is consumed (edge storage is moved out).
  /// ResourceExhausted when the sort's scratch cannot be mapped.
  Result<Graph> Build() &&;

 private:
  NodeId num_nodes_;
  bool allow_self_loops_;
  std::vector<uint64_t> edges_;  // PackEdge(min, max), unsorted
};

}  // namespace wnw
