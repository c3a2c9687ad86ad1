// Streaming out-of-core ingestion (storage/ingest.h): the external-sort
// pipeline must produce snapshots byte-identical to the in-memory writer on
// the same edge stream — across duplicate edges straddling run boundaries,
// self-loops under both policies, reversed/unsorted input, empty and
// single-node graphs, clamped merge fan-in, multi-pass merges, and a sort
// buffer exactly the input's size (one run kept in memory) or one key short
// (a spill) — and must fail gracefully (InvalidArgument, never OOM) when the
// sort buffer cannot hold a chunk. Temp files never outlive the call.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "storage/ingest.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace wnw {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wnw_ingest_test_" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

/// Replays a fixed edge vector; lets tests feed the identical stream to the
/// streaming pipeline and to the in-memory reference.
class VecEdgeSource : public EdgeSource {
 public:
  explicit VecEdgeSource(std::vector<InputEdge> edges, NodeId floor = 0)
      : edges_(std::move(edges)), floor_(floor) {}

  Result<size_t> Next(std::span<InputEdge> out) override {
    size_t produced = 0;
    while (produced < out.size() && pos_ < edges_.size()) {
      out[produced++] = edges_[pos_++];
    }
    return produced;
  }
  NodeId min_num_nodes() const override { return floor_; }

 private:
  std::vector<InputEdge> edges_;
  size_t pos_ = 0;
  NodeId floor_ = 0;
};

/// Streams `edges` with the given options and separately builds the graph
/// in memory from the same stream; asserts the two snapshot files are
/// byte-for-byte identical and returns the streaming stats.
storage::IngestStats ExpectIdentical(const std::vector<InputEdge>& edges,
                                     storage::IngestOptions options,
                                     const std::string& tag,
                                     NodeId floor = 0) {
  const std::string streamed_path = TempPath(tag + "_streamed.snap");
  const std::string reference_path = TempPath(tag + "_reference.snap");

  VecEdgeSource streamed_source(edges, floor);
  auto stats =
      storage::StreamGraphSnapshot(streamed_source, streamed_path, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();

  VecEdgeSource reference_source(edges, floor);
  auto graph =
      BuildGraphFromEdgeSource(reference_source, options.allow_self_loops);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(WriteGraphSnapshot(*graph, reference_path, {}).ok());

  const std::vector<char> streamed = ReadAll(streamed_path);
  const std::vector<char> reference = ReadAll(reference_path);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(streamed, reference) << tag << ": streamed snapshot is not "
                                 << "byte-identical to the in-memory writer";

  std::remove(streamed_path.c_str());
  std::remove(reference_path.c_str());
  return stats.ok() ? *stats : storage::IngestStats{};
}

std::vector<InputEdge> RandomEdges(NodeId n, uint64_t m, uint64_t seed) {
  RandomEdgeSource source(n, m, seed);
  std::vector<InputEdge> edges(m);
  size_t filled = 0;
  while (filled < m) {
    auto got = source.Next(std::span<InputEdge>(edges).subspan(filled));
    EXPECT_TRUE(got.ok());
    if (*got == 0) break;
    filled += *got;
  }
  EXPECT_EQ(filled, m);
  return edges;
}

TEST(StreamingIngestTest, IdentityOnRandomMultigraph) {
  // Default options: everything fits in one run.
  storage::IngestOptions options;
  const auto stats =
      ExpectIdentical(RandomEdges(500, 3000, 11), options, "rand_one_run");
  EXPECT_EQ(stats.input_edges, 3000u);
  EXPECT_EQ(stats.sorted_runs, 1u);
  EXPECT_EQ(stats.merge_passes, 0u);
}

TEST(StreamingIngestTest, IdentityAcrossRunBoundariesAndMergePasses) {
  // A tiny sort buffer forces hundreds of runs, and fan-in 2 forces many
  // intermediate merge passes; duplicates and both orientations straddle
  // run boundaries constantly.
  storage::IngestOptions options;
  options.sort_buffer_entries = 64;
  options.merge_fan_in = 2;
  const auto stats = ExpectIdentical(RandomEdges(200, 5000, 7), options,
                                     "rand_many_runs");
  EXPECT_GT(stats.sorted_runs, 100u);
  EXPECT_GT(stats.merge_passes, 0u);
}

// Packed orientations the pipeline buffers for `edges` with self-loops
// dropped: two per non-loop edge, duplicates included.
uint64_t PackedKeyCount(const std::vector<InputEdge>& edges) {
  uint64_t keys = 0;
  for (const InputEdge& e : edges) keys += e.u == e.v ? 0 : 2;
  return keys;
}

TEST(StreamingIngestTest, BufferExactlyHoldingTheInputKeepsOneRunInMemory) {
  const std::vector<InputEdge> edges = RandomEdges(300, 2000, 17);
  storage::IngestOptions options;
  options.sort_buffer_entries = PackedKeyCount(edges);
  const auto stats = ExpectIdentical(edges, options, "exact_fit");
  EXPECT_EQ(stats.sorted_runs, 1u);
  EXPECT_EQ(stats.merge_passes, 0u);
}

TEST(StreamingIngestTest, BufferOneKeyShortSpillsTwoRuns) {
  const std::vector<InputEdge> edges = RandomEdges(300, 2000, 17);
  storage::IngestOptions options;
  options.sort_buffer_entries = PackedKeyCount(edges) - 1;
  const auto stats = ExpectIdentical(edges, options, "one_short");
  EXPECT_EQ(stats.sorted_runs, 2u);  // a full run file and a 1-key tail
  EXPECT_EQ(stats.merge_passes, 0u);
}

TEST(StreamingIngestTest, IdentityOnScaleFreeGraphViaAdapter) {
  const Graph g = testing::MakeTestBA(800, 5);
  const std::string streamed_path = TempPath("ba_streamed.snap");
  const std::string reference_path = TempPath("ba_reference.snap");

  GraphEdgeSource source(&g);
  storage::IngestOptions options;
  options.sort_buffer_entries = 1024;
  auto stats = storage::StreamGraphSnapshot(source, streamed_path, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(WriteGraphSnapshot(g, reference_path, {}).ok());
  EXPECT_EQ(ReadAll(streamed_path), ReadAll(reference_path));

  // And the streamed file must serve the same topology through the loader.
  auto loaded = LoadGraphSnapshot(streamed_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->graph.num_nodes(), g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(testing::ToVec(loaded->graph.Neighbors(u)),
              testing::ToVec(g.Neighbors(u)));
  }
  std::remove(streamed_path.c_str());
  std::remove(reference_path.c_str());
}

TEST(StreamingIngestTest, DuplicatesReversalsAndSelfLoopsDropped) {
  std::vector<InputEdge> edges;
  for (int rep = 0; rep < 20; ++rep) {
    edges.push_back({4, 1});  // reversed orientation
    edges.push_back({1, 4});
    edges.push_back({2, 2});  // self-loop (dropped by default)
    edges.push_back({3, 0});
    edges.push_back({0, 3});
  }
  storage::IngestOptions options;
  options.sort_buffer_entries = 4;  // duplicates straddle every run
  const auto stats = ExpectIdentical(edges, options, "dups_dropped");
  EXPECT_EQ(stats.input_edges, 100u);
  EXPECT_EQ(stats.dropped_self_loops, 20u);
  EXPECT_EQ(stats.num_edges, 2u);
  EXPECT_EQ(stats.num_nodes, 5u);  // node 2 exists though its loop dropped
}

TEST(StreamingIngestTest, SelfLoopsKeptWhenAllowed) {
  std::vector<InputEdge> edges = {{0, 1}, {2, 2}, {1, 0}, {2, 2}};
  storage::IngestOptions options;
  options.allow_self_loops = true;
  options.sort_buffer_entries = 2;
  const auto stats = ExpectIdentical(edges, options, "loops_kept");
  EXPECT_EQ(stats.num_edges, 2u);          // (0,1) and the loop at 2
  EXPECT_EQ(stats.adjacency_entries, 3u);  // loop contributes one endpoint
}

TEST(StreamingIngestTest, EmptyAndSingleNodeGraphs) {
  ExpectIdentical({}, {}, "empty");
  // One isolated node: only observable via the declared floor.
  const auto stats = ExpectIdentical({}, {}, "single", /*floor=*/1);
  EXPECT_EQ(stats.num_nodes, 1u);
  EXPECT_EQ(stats.num_edges, 0u);
}

TEST(StreamingIngestTest, IsolatedTrailingNodesViaOptionFloor) {
  storage::IngestOptions options;
  options.min_num_nodes = 50;
  const auto stats =
      ExpectIdentical({{0, 1}, {1, 2}}, options, "floor_opt", /*floor=*/50);
  EXPECT_EQ(stats.num_nodes, 50u);
}

TEST(StreamingIngestTest, MergeFanInOfOneIsClampedAndCompletes) {
  storage::IngestOptions options;
  options.merge_fan_in = 1;  // would never reduce the run count unclamped
  options.sort_buffer_entries = 8;
  const auto stats =
      ExpectIdentical(RandomEdges(50, 400, 3), options, "fan_in_one");
  EXPECT_GT(stats.sorted_runs, 2u);
}

TEST(StreamingIngestTest, UndersizedBufferIsInvalidArgumentNotOom) {
  VecEdgeSource source({{0, 1}});
  storage::IngestOptions options;
  options.memory_budget_bytes = 1024;  // below the documented minimum
  auto result =
      storage::StreamGraphSnapshot(source, TempPath("tiny.snap"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  VecEdgeSource source2({{0, 1}});
  storage::IngestOptions options2;
  options2.sort_buffer_entries = 1;  // cannot hold one edge's orientations
  auto result2 =
      storage::StreamGraphSnapshot(source2, TempPath("tiny2.snap"), options2);
  ASSERT_FALSE(result2.ok());
  EXPECT_EQ(result2.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingIngestTest, BufferBeyondTheAddressSpaceIsResourceExhausted) {
  VecEdgeSource source({{0, 1}});
  storage::IngestOptions options;
  options.sort_buffer_entries = UINT64_MAX;  // its byte size must not wrap
  auto result =
      storage::StreamGraphSnapshot(source, TempPath("huge.snap"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(StreamingIngestTest, OriginalIdsStreamFromEdgeListFile) {
  const std::string edges_path = TempPath("edges.txt");
  {
    std::ofstream out(edges_path);
    out << "# comment\n1000 2000\n2000 3000\n1000 3000\n3000 1000\n";
  }
  const std::string streamed_path = TempPath("ids_streamed.snap");
  const std::string reference_path = TempPath("ids_reference.snap");

  {
    auto source = EdgeListFileSource::Open(edges_path);
    ASSERT_TRUE(source.ok());
    auto stats = storage::StreamGraphSnapshot(**source, streamed_path, {});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  {
    auto loaded = LoadEdgeList(edges_path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(WriteGraphSnapshot(loaded->graph, reference_path,
                                   {.original_ids = loaded->original_id})
                    .ok());
  }
  EXPECT_EQ(ReadAll(streamed_path), ReadAll(reference_path));

  auto loaded = LoadGraphSnapshot(streamed_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->original_id,
            (std::vector<uint64_t>{1000, 2000, 3000}));
  std::remove(edges_path.c_str());
  std::remove(streamed_path.c_str());
  std::remove(reference_path.c_str());
}

TEST(StreamingIngestTest, TempFilesNeverOutliveTheCall) {
  namespace fs = std::filesystem;
  const std::string temp_dir = TempPath("ingest_tmp_dir");
  fs::create_directories(temp_dir);

  const std::string out_path = TempPath("tmpcheck.snap");
  storage::IngestOptions options;
  options.temp_dir = temp_dir;
  options.sort_buffer_entries = 16;  // several runs, so temps really exist
  options.merge_fan_in = 2;
  {
    VecEdgeSource source(RandomEdges(100, 600, 5));
    auto stats = storage::StreamGraphSnapshot(source, out_path, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  EXPECT_TRUE(fs::is_empty(temp_dir)) << "run/offset temp files leaked";
  EXPECT_FALSE(fs::exists(out_path + ".tmp")) << "writer temp leaked";
  EXPECT_TRUE(fs::exists(out_path));

  // Failure path: an invalid output directory must clean the temps up too.
  const std::string bad_path = TempPath("no_such_dir") + "/out.snap";
  VecEdgeSource source(RandomEdges(100, 600, 5));
  storage::IngestOptions bad_options = options;
  auto result = storage::StreamGraphSnapshot(source, bad_path, bad_options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(fs::is_empty(temp_dir)) << "temp files leaked on failure";

  fs::remove_all(temp_dir);
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace wnw
