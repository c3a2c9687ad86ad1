// The packed edge-key sort (graph/edge_sort.h) against std::sort, and
// GraphBuilder::Build, which sorts through it, against a std::sort
// reference CSR.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/edge_sort.h"
#include "random/rng.h"

namespace wnw {
namespace {

/// Sorts a copy of `keys` with the kernel and with std::sort; they must agree.
void ExpectSortsLikeStdSort(std::vector<uint64_t> keys) {
  std::vector<uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  HugePageArena scratch;
  ASSERT_TRUE(SortEdgeKeys(keys, &scratch).ok());
  EXPECT_EQ(keys, expected);
}

TEST(SortEdgeKeysTest, EmptyOneAndTwoKeys) {
  ExpectSortsLikeStdSort({});
  ExpectSortsLikeStdSort({42});
  ExpectSortsLikeStdSort({7, 3});
  ExpectSortsLikeStdSort({3, 7});
  ExpectSortsLikeStdSort({PackEdge(1, 0), PackEdge(0, 1)});
}

TEST(SortEdgeKeysTest, AllEqualKeysNeedNoScratch) {
  std::vector<uint64_t> keys(1000, PackEdge(123456, 789));
  const std::vector<uint64_t> expected = keys;
  HugePageArena scratch;
  ASSERT_TRUE(SortEdgeKeys(keys, &scratch).ok());
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(scratch.size(), 0u) << "no digit differs, so no pass runs";
}

TEST(SortEdgeKeysTest, KeysDifferingOnlyInTopByte) {
  Rng rng(1);
  std::vector<uint64_t> keys(5000);
  for (uint64_t& key : keys) {
    key = (rng.NextBounded(256) << 56) | 0x0000'1234'5678'9abcull;
  }
  ExpectSortsLikeStdSort(keys);
}

TEST(SortEdgeKeysTest, KeysDifferingOnlyInBottomByte) {
  Rng rng(2);
  std::vector<uint64_t> keys(5000);
  for (uint64_t& key : keys) {
    key = 0xfedc'ba98'7654'3200ull | rng.NextBounded(256);
  }
  ExpectSortsLikeStdSort(keys);
}

TEST(SortEdgeKeysTest, HeavyDuplicates) {
  Rng rng(3);
  std::vector<uint64_t> keys(20000);
  for (uint64_t& key : keys) {
    key = PackEdge(static_cast<NodeId>(rng.NextBounded(5)),
                   static_cast<NodeId>(rng.NextBounded(5)));
  }
  ExpectSortsLikeStdSort(keys);
}

TEST(SortEdgeKeysTest, RandomFullRangeKeys) {
  Rng rng(4);
  for (const size_t n : {3u, 255u, 256u, 257u, 100000u}) {
    std::vector<uint64_t> keys(n);
    for (uint64_t& key : keys) key = rng.Next();
    ExpectSortsLikeStdSort(keys);
  }
}

TEST(SortEdgeKeysTest, ScratchIsReusedAndGrown) {
  Rng rng(5);
  std::vector<uint64_t> big(4096), small(100);
  for (uint64_t& key : big) key = rng.Next();
  for (uint64_t& key : small) key = rng.Next();
  HugePageArena scratch;
  ASSERT_TRUE(SortEdgeKeys(small, &scratch).ok());
  EXPECT_GE(scratch.size(), small.size() * sizeof(uint64_t));
  ASSERT_TRUE(SortEdgeKeys(big, &scratch).ok());
  EXPECT_GE(scratch.size(), big.size() * sizeof(uint64_t));
  const void* mapped = scratch.data();
  ASSERT_TRUE(SortEdgeKeys(small, &scratch).ok());
  EXPECT_EQ(scratch.data(), mapped) << "a large enough scratch is kept";
  EXPECT_TRUE(std::is_sorted(big.begin(), big.end()));
  EXPECT_TRUE(std::is_sorted(small.begin(), small.end()));
}

/// CSR of `edges` built the way GraphBuilder did before it packed keys:
/// normalize, std::sort the pairs, dedup, count degrees, fill rows.
struct ReferenceCsr {
  std::vector<uint64_t> offsets;
  std::vector<NodeId> adjacency;
  uint64_t num_edges = 0;
  uint32_t min_degree = 0;
  uint32_t max_degree = 0;
};

ReferenceCsr BuildReference(NodeId n,
                            std::vector<std::pair<NodeId, NodeId>> edges,
                            bool allow_self_loops) {
  for (auto& [u, v] : edges) {
    if (u > v) std::swap(u, v);
  }
  std::erase_if(edges, [&](const auto& e) {
    return e.first == e.second && !allow_self_loops;
  });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  ReferenceCsr ref;
  ref.num_edges = edges.size();
  ref.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++ref.offsets[u + 1];
    if (u != v) ++ref.offsets[v + 1];
  }
  for (NodeId i = 0; i < n; ++i) ref.offsets[i + 1] += ref.offsets[i];
  ref.adjacency.resize(ref.offsets[n]);
  std::vector<uint64_t> cursor(ref.offsets.begin(), ref.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    ref.adjacency[cursor[u]++] = v;
    if (u != v) ref.adjacency[cursor[v]++] = u;
  }
  ref.min_degree = n > 0 ? UINT32_MAX : 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto degree =
        static_cast<uint32_t>(ref.offsets[u + 1] - ref.offsets[u]);
    ref.min_degree = std::min(ref.min_degree, degree);
    ref.max_degree = std::max(ref.max_degree, degree);
  }
  return ref;
}

void ExpectBuildMatchesReference(NodeId n, uint64_t m, uint64_t seed,
                                 bool allow_self_loops) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges(m);
  for (auto& [u, v] : edges) {
    u = static_cast<NodeId>(rng.NextBounded(n));
    v = static_cast<NodeId>(rng.NextBounded(n));
  }
  GraphBuilder builder(n, allow_self_loops);
  for (const auto& [u, v] : edges) ASSERT_TRUE(builder.AddEdge(u, v).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  const ReferenceCsr ref = BuildReference(n, edges, allow_self_loops);
  EXPECT_EQ(std::vector<uint64_t>(graph->offsets().begin(),
                                  graph->offsets().end()),
            ref.offsets);
  EXPECT_EQ(std::vector<NodeId>(graph->adjacency().begin(),
                                graph->adjacency().end()),
            ref.adjacency);
  EXPECT_EQ(graph->num_edges(), ref.num_edges);
  EXPECT_EQ(graph->min_degree(), ref.min_degree);
  EXPECT_EQ(graph->max_degree(), ref.max_degree);
}

TEST(GraphBuilderRadixTest, MatchesStdSortReferenceDroppingSelfLoops) {
  ExpectBuildMatchesReference(50, 2000, 11, /*allow_self_loops=*/false);
  ExpectBuildMatchesReference(3000, 40000, 12, /*allow_self_loops=*/false);
  // Ids above 2^16 make the third byte of both halves of a key vary.
  ExpectBuildMatchesReference(100000, 30000, 13, /*allow_self_loops=*/false);
}

TEST(GraphBuilderRadixTest, MatchesStdSortReferenceKeepingSelfLoops) {
  // The sharded rebuild (ShardedGraph::Flatten) keeps self-loops.
  ExpectBuildMatchesReference(50, 2000, 21, /*allow_self_loops=*/true);
  ExpectBuildMatchesReference(3000, 40000, 22, /*allow_self_loops=*/true);
  ExpectBuildMatchesReference(100000, 30000, 23, /*allow_self_loops=*/true);
}

}  // namespace
}  // namespace wnw
