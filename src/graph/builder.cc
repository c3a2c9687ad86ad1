#include "graph/builder.h"

#include <algorithm>

#include "graph/edge_sort.h"
#include "util/check.h"
#include "util/string_util.h"

namespace wnw {

Status GraphBuilder::AddEdge(NodeId u, NodeId v) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return Status::InvalidArgument(
        StrFormat("edge (%u,%u) out of range for %u nodes", u, v, num_nodes_));
  }
  if (u == v && !allow_self_loops_) return Status::OK();
  if (u > v) std::swap(u, v);
  edges_.push_back(PackEdge(u, v));
  return Status::OK();
}

void GraphBuilder::EnsureNode(NodeId u) {
  if (u >= num_nodes_) num_nodes_ = u + 1;
}

Result<Graph> GraphBuilder::Build() && {
  {
    HugePageArena scratch;  // unmapped before the CSR arrays are allocated
    WNW_RETURN_IF_ERROR(SortEdgeKeys(edges_, &scratch));
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  // Pack into heap vectors first, then hand them to the graph's storage
  // arrays (adopted, not copied) — same bytes the old vector members held.
  std::vector<uint64_t> offsets(static_cast<size_t>(num_nodes_) + 1, 0);

  // Degree counting pass. A self-loop contributes one adjacency entry.
  for (const uint64_t key : edges_) {
    const NodeId u = PackedRow(key);
    const NodeId v = PackedCol(key);
    offsets[u + 1]++;
    if (u != v) offsets[v + 1]++;
  }
  for (NodeId i = 0; i < num_nodes_; ++i) offsets[i + 1] += offsets[i];

  std::vector<NodeId> adjacency(offsets[num_nodes_]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const uint64_t key : edges_) {
    const NodeId u = PackedRow(key);
    const NodeId v = PackedCol(key);
    adjacency[cursor[u]++] = v;
    if (u != v) adjacency[cursor[v]++] = u;
  }

  Graph g;
  g.num_nodes_ = num_nodes_;
  g.num_edges_ = edges_.size();
  g.offsets_ = storage::Array<uint64_t>(std::move(offsets));
  g.adjacency_ = storage::Array<NodeId>(std::move(adjacency));

  // Edges were emitted in sorted (u,v) order, so each neighbor list is
  // already ascending; verify in debug builds.
#ifndef NDEBUG
  for (NodeId u = 0; u < num_nodes_; ++u) {
    const auto nbrs = g.Neighbors(u);
    WNW_DCHECK(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
#endif

  uint32_t max_deg = 0;
  uint32_t min_deg = num_nodes_ > 0 ? UINT32_MAX : 0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    const uint32_t d = g.Degree(u);
    max_deg = std::max(max_deg, d);
    min_deg = std::min(min_deg, d);
  }
  g.max_degree_ = max_deg;
  g.min_degree_ = min_deg;
  return g;
}

}  // namespace wnw
