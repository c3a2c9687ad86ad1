// The disk-backed origin: SnapshotBackend must be indistinguishable from
// InMemoryBackend — node for node, restriction for restriction, sampler for
// sampler, sharded or not — and the spec keys ?snapshot= / ?cache_file=
// serve and warm-start sessions (their validation is in spec_keys_test.cc).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "access/snapshot_backend.h"
#include "core/session.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/check.h"

namespace wnw {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wnw_snapbackend_test_" + name;
}

// One snapshot of the shared test graph, written once per process.
const Graph& TestGraph() {
  static const Graph g = testing::MakeTestBA(120, 3);
  return g;
}

const std::string& TestSnapshotPath() {
  static const std::string path = [] {
    const std::string p = TempPath("graph.snap");
    const ShardedGraph sharded =
        ShardedGraph::FromGraph(TestGraph(), 3,
                                ShardPartition::kDegreeBalanced)
            .value();
    WNW_CHECK(WriteGraphSnapshot(TestGraph(), p, {.sharded = &sharded}).ok());
    return p;
  }();
  return path;
}

TEST(SnapshotBackendTest, MatchesInMemoryResponsesNodeForNode) {
  const Graph& g = TestGraph();
  for (const NeighborRestriction restriction :
       {NeighborRestriction::kNone, NeighborRestriction::kFixedSubset,
        NeighborRestriction::kTruncated}) {
    AccessOptions opts;
    opts.restriction = restriction;
    if (restriction != NeighborRestriction::kNone) opts.max_neighbors = 2;
    opts.seed = 99;
    InMemoryBackend memory(&g, opts);
    auto snapshot = SnapshotBackend::Open(TestSnapshotPath(), opts);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_EQ((*snapshot)->num_nodes(), g.num_nodes());
    EXPECT_TRUE((*snapshot)->graph().storage_mapped());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      auto a = memory.FetchNeighbors(u);
      auto b = (*snapshot)->FetchNeighbors(u);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->TakeNeighbors(), b->TakeNeighbors())
          << "node " << u << " restriction "
          << static_cast<int>(restriction);
    }
  }
}

TEST(SnapshotBackendTest, OutOfRangeNodeIsStatusNotCrash) {
  auto snapshot = SnapshotBackend::Open(TestSnapshotPath());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->FetchNeighbors(10'000'000).status().code(),
            StatusCode::kOutOfRange);
}

// The tentpole acceptance invariant: every registered sampler draws
// byte-identical samples at identical query cost whether the origin serves
// from the heap or from the mmap'd snapshot — unsharded and sharded.
TEST(SnapshotAcceptanceTest, EverySamplerDrawsIdenticallyOnSnapshotOrigin) {
  const Graph& g = TestGraph();
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    const std::string base =
        name + ":srw" + (name.rfind("we", 0) == 0 ? "?diameter=4" : "");
    const char sep = base.find('?') == std::string::npos ? '?' : '&';
    SessionOptions opts;
    opts.seed = 4242;

    auto memory_session = SamplingSession::Open(&g, base, opts);
    ASSERT_TRUE(memory_session.ok()) << base;
    std::vector<NodeId> baseline;
    ASSERT_TRUE((*memory_session)->DrawInto(&baseline, 12).ok()) << base;
    const uint64_t baseline_cost = (*memory_session)->Stats().query_cost;

    // Unsharded snapshot origin, selected through the spec string.
    const std::string snap_spec =
        base + sep + "snapshot=" + TestSnapshotPath();
    auto snap_session = SamplingSession::Open(&g, snap_spec, opts);
    ASSERT_TRUE(snap_session.ok())
        << snap_spec << ": " << snap_session.status().ToString();
    std::vector<NodeId> snap_samples;
    ASSERT_TRUE((*snap_session)->DrawInto(&snap_samples, 12).ok());
    EXPECT_EQ((*snap_session)->Stats().backend, "snapshot");
    EXPECT_EQ(snap_samples, baseline) << snap_spec;
    EXPECT_EQ((*snap_session)->Stats().query_cost, baseline_cost)
        << snap_spec;

    // Sharded snapshot origin: 3 shards match the file's own sections
    // (served straight from the mapping); 2 shards force an in-memory
    // re-partition — identical samples either way.
    for (const int shards : {3, 2}) {
      const std::string sharded_spec =
          base + sep + "shards=" + std::to_string(shards) +
          "&partition=degree&snapshot=" + TestSnapshotPath();
      auto sharded_session = SamplingSession::Open(&g, sharded_spec, opts);
      ASSERT_TRUE(sharded_session.ok())
          << sharded_spec << ": " << sharded_session.status().ToString();
      std::vector<NodeId> sharded_samples;
      ASSERT_TRUE((*sharded_session)->DrawInto(&sharded_samples, 12).ok());
      EXPECT_EQ(sharded_samples, baseline) << sharded_spec;
      EXPECT_EQ((*sharded_session)->Stats().query_cost, baseline_cost)
          << sharded_spec;
      EXPECT_EQ((*sharded_session)->Stats().backend,
                "sharded[degree:" + std::to_string(shards) + "](snapshot)");
    }
  }
}

// The trusted-open fast path: ?snapshot_verify=off skips the checksum and
// shard-consistency scans at open time but serves the exact same bytes —
// samples and costs must not move.
TEST(SnapshotAcceptanceTest, TrustedOpenDrawsIdenticalSamples) {
  const Graph& g = TestGraph();
  SessionOptions opts;
  opts.seed = 515;
  for (const std::string& extra :
       {std::string(""), std::string("&shards=3&partition=degree")}) {
    const std::string base =
        "burnin:srw?snapshot=" + TestSnapshotPath() + extra;
    auto verified = SamplingSession::Open(&g, base, opts);
    ASSERT_TRUE(verified.ok()) << base;
    std::vector<NodeId> expected;
    ASSERT_TRUE((*verified)->DrawInto(&expected, 15).ok());

    auto trusted =
        SamplingSession::Open(&g, base + "&snapshot_verify=off", opts);
    ASSERT_TRUE(trusted.ok())
        << base << ": " << trusted.status().ToString();
    std::vector<NodeId> samples;
    ASSERT_TRUE((*trusted)->DrawInto(&samples, 15).ok());
    EXPECT_EQ(samples, expected) << base;
    EXPECT_EQ((*trusted)->Stats().query_cost,
              (*verified)->Stats().query_cost);
  }
}

TEST(SnapshotSpecTest, LatencyDecoratorComposesOverSnapshotOrigin) {
  const Graph& g = TestGraph();
  SessionOptions opts;
  opts.seed = 7;
  auto session = SamplingSession::Open(
      &g,
      "burnin:srw?backend=latency&mean_ms=5&snapshot=" + TestSnapshotPath(),
      opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<NodeId> samples;
  ASSERT_TRUE((*session)->DrawInto(&samples, 3).ok());
  const SessionStats stats = (*session)->Stats();
  EXPECT_EQ(stats.backend, "latency(snapshot)");
  EXPECT_GT(stats.waited_seconds, 0.0);
}

TEST(CacheFileSpecTest, SecondSessionWarmStartsFromTheFile) {
  const Graph& g = TestGraph();
  const std::string cache_path = TempPath("session.wnwcache");
  std::remove(cache_path.c_str());
  const std::string spec = "burnin:srw?cache_file=" + cache_path;
  SessionOptions opts;
  opts.seed = 21;

  std::vector<NodeId> cold_samples;
  uint64_t cold_cost = 0;
  {
    auto session = SamplingSession::Open(&g, spec, opts);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE((*session)->DrawInto(&cold_samples, 10).ok());
    const SessionStats stats = (*session)->Stats();
    EXPECT_TRUE(stats.cache_attached);
    EXPECT_EQ(stats.cache_file, cache_path);
    cold_cost = stats.query_cost;
    EXPECT_GT(cold_cost, 0u);
    // Closing the session persists the cache (destructor path).
  }
  {
    auto session = SamplingSession::Open(&g, spec, opts);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    std::vector<NodeId> warm_samples;
    ASSERT_TRUE((*session)->DrawInto(&warm_samples, 10).ok());
    const SessionStats stats = (*session)->Stats();
    EXPECT_EQ(warm_samples, cold_samples);  // history never changes results
    EXPECT_LT(stats.query_cost, cold_cost);  // it only makes them cheaper
    EXPECT_GT(stats.cache_entries, 0u);
    EXPECT_GT(stats.cache_hits, 0u);
  }
  std::remove(cache_path.c_str());
}

}  // namespace
}  // namespace wnw
