// The pluggable access-backend layer: InMemoryBackend restriction
// simulation, the latency / rate-limit decorators' simulated-time
// accounting (batches pay the slowest round trip, not the sum), sync vs
// completion parity (both bill through one fold), and the acceptance bar
// for the redesign — every registered sampler draws correctly against both
// the plain in-memory backend and a latency-decorated stack with no
// sampler-code changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "access/access_interface.h"
#include "access/backend.h"
#include "access/completion_executor.h"
#include "access/decorators.h"
#include "access/sharded_backend.h"
#include "access/snapshot_backend.h"
#include "core/session.h"
#include "graph/generators.h"
#include "graph/sharded_graph.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace wnw {
namespace {

TEST(InMemoryBackendTest, ServesGraphNeighbors) {
  const Graph g = testing::MakeHouseGraph();
  InMemoryBackend backend(&g);
  auto reply = backend.FetchNeighbors(0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(testing::ToVec(reply->neighbors), (std::vector<NodeId>{1, 2, 3}));
  // Unrestricted responses are served straight from the CSR adjacency
  // arena: a view into the graph's storage, no owned copy.
  EXPECT_TRUE(reply->owned.empty());
  EXPECT_EQ(reply->neighbors.data(), g.Neighbors(0).data());
  EXPECT_DOUBLE_EQ(reply->simulated_seconds, 0.0);
  EXPECT_TRUE(backend.deterministic());
  EXPECT_EQ(backend.name(), "memory");
}

TEST(InMemoryBackendTest, OutOfRangeNodeIsStatusNotCrash) {
  const Graph g = testing::MakeHouseGraph();
  InMemoryBackend backend(&g);
  EXPECT_EQ(backend.FetchNeighbors(99).status().code(),
            StatusCode::kOutOfRange);
}

TEST(InMemoryBackendTest, RandomSubsetIsNotDeterministic) {
  const Graph g = MakeStar(100).value();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kRandomSubset;
  opts.max_neighbors = 5;
  InMemoryBackend backend(&g, opts);
  EXPECT_FALSE(backend.deterministic());
  std::set<std::vector<NodeId>> observed;
  for (int i = 0; i < 10; ++i) {
    observed.insert(backend.FetchNeighbors(0)->TakeNeighbors());
  }
  EXPECT_GT(observed.size(), 1u);
}

TEST(InMemoryBackendTest, FixedSubsetStableAcrossFetchesAndBatches) {
  const Graph g = MakeStar(100).value();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kFixedSubset;
  opts.max_neighbors = 5;
  InMemoryBackend backend(&g, opts);
  const std::vector<NodeId> first = backend.FetchNeighbors(0)->TakeNeighbors();
  EXPECT_EQ(first.size(), 5u);
  EXPECT_EQ(backend.FetchNeighbors(0)->TakeNeighbors(), first);
  const std::vector<NodeId> nodes = {0, 1, 0};
  auto batch = backend.FetchBatch(nodes);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->lists.size(), 3u);
  EXPECT_EQ(batch->lists[0], first);
  EXPECT_EQ(batch->lists[2], first);
}

TEST(LatencyBackendTest, BillsMeanPerRequest) {
  const Graph g = testing::MakeHouseGraph();
  LatencyConfig config;
  config.mean_ms = 50.0;
  config.jitter_ms = 0.0;
  LatencyBackend backend(std::make_shared<InMemoryBackend>(&g), config);
  auto reply = backend.FetchNeighbors(0);
  ASSERT_TRUE(reply.ok());
  EXPECT_DOUBLE_EQ(reply->simulated_seconds, 0.050);
  EXPECT_EQ(backend.name(), "latency(memory)");
  // The response payload is untouched.
  EXPECT_EQ(testing::ToVec(reply->neighbors), (std::vector<NodeId>{1, 2, 3}));
}

TEST(LatencyBackendTest, JitterStaysInBounds) {
  const Graph g = testing::MakeHouseGraph();
  LatencyConfig config;
  config.mean_ms = 50.0;
  config.jitter_ms = 10.0;
  LatencyBackend backend(std::make_shared<InMemoryBackend>(&g), config);
  for (int i = 0; i < 200; ++i) {
    const double s = backend.FetchNeighbors(0)->simulated_seconds;
    EXPECT_GE(s, 0.040);
    EXPECT_LE(s, 0.060);
  }
}

TEST(LatencyBackendTest, BatchPaysSlowestRoundTripNotSum) {
  const Graph g = testing::MakeTestBA(60, 3);
  LatencyConfig config;
  config.mean_ms = 50.0;
  config.jitter_ms = 10.0;
  LatencyBackend backend(std::make_shared<InMemoryBackend>(&g), config);
  const std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  auto batch = backend.FetchBatch(nodes);
  ASSERT_TRUE(batch.ok());
  // Concurrent dispatch: one round trip in [mean - jitter, mean + jitter],
  // far below the 8 * 40ms sequential floor.
  EXPECT_GE(batch->simulated_seconds, 0.040);
  EXPECT_LE(batch->simulated_seconds, 0.060);
}

TEST(LatencyBackendTest, SleepingSyncBatchSleepsOnceForTheSlowest) {
  const Graph g = testing::MakeTestBA(60, 3);
  LatencyConfig config;
  config.mean_ms = 20.0;
  config.sleep_scale = 1.0;
  LatencyBackend backend(std::make_shared<InMemoryBackend>(&g), config);
  const std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto start = std::chrono::steady_clock::now();
  auto batch = backend.FetchBatch(nodes);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(batch.ok());
  // The batch bills one round trip, and its wall clock agrees: it sleeps
  // the slowest request once instead of every request in turn (8 x 20ms).
  EXPECT_DOUBLE_EQ(batch->simulated_seconds, 0.020);
  EXPECT_GE(elapsed, 0.020);
  EXPECT_LT(elapsed, 4 * 0.020);
}

TEST(LatencyBackendTest, CompletionBillsLikeTheSyncFetch) {
  const Graph g = testing::MakeTestBA(60, 3);
  for (const double sleep_scale : {0.0, 0.02}) {
    LatencyConfig config;
    config.mean_ms = 50.0;
    config.jitter_ms = 10.0;
    config.failure_rate = 0.3;
    config.retry_backoff_ms = 100.0;
    config.sleep_scale = sleep_scale;
    LatencyBackend sync(std::make_shared<InMemoryBackend>(&g), config);
    LatencyBackend async(std::make_shared<InMemoryBackend>(&g), config);
    for (NodeId u = 0; u < 5; ++u) {
      auto want = sync.FetchNeighbors(u);
      ASSERT_TRUE(want.ok());
      std::promise<Result<FetchReply>> promise;
      std::thread::id completed_on;
      async.FetchNeighborsCompletion(u, [&](Result<FetchReply> reply) {
        completed_on = std::this_thread::get_id();
        promise.set_value(std::move(reply));
      });
      auto got = promise.get_future().get();
      ASSERT_TRUE(got.ok());
      // Same schedule from the same RNG stream, same neighbors.
      EXPECT_DOUBLE_EQ(got->simulated_seconds, want->simulated_seconds);
      EXPECT_EQ(got->TakeNeighbors(), want->TakeNeighbors());
      // Unslept requests complete inline; slept ones from the timer thread.
      EXPECT_EQ(completed_on == std::this_thread::get_id(), sleep_scale == 0.0)
          << "sleep_scale " << sleep_scale;
    }
  }
}

TEST(LatencyBackendTest, FailuresAddRetryBackoff) {
  const Graph g = testing::MakeHouseGraph();
  LatencyConfig config;
  config.mean_ms = 10.0;
  config.failure_rate = 0.5;
  config.retry_backoff_ms = 100.0;
  config.max_retries = 50;
  LatencyBackend backend(std::make_shared<InMemoryBackend>(&g), config);
  // With p=0.5 the expected cost per request is one backoff + two RTTs;
  // across many requests, total simulated time must clearly exceed the
  // no-failure baseline of 10ms per request.
  double total = 0.0;
  constexpr int kRequests = 300;
  for (int i = 0; i < kRequests; ++i) {
    auto reply = backend.FetchNeighbors(0);
    ASSERT_TRUE(reply.ok());
    total += reply->simulated_seconds;
  }
  EXPECT_GT(total, kRequests * 0.010 * 2);
}

TEST(LatencyBackendTest, ExhaustedRetriesSurfaceAsStatus) {
  const Graph g = testing::MakeHouseGraph();
  LatencyConfig config;
  config.failure_rate = 0.95;
  config.max_retries = 0;  // a single failure already errors out
  LatencyBackend backend(std::make_shared<InMemoryBackend>(&g), config);
  bool saw_error = false;
  for (int i = 0; i < 100 && !saw_error; ++i) {
    saw_error = backend.FetchNeighbors(0).status().code() ==
                StatusCode::kResourceExhausted;
  }
  EXPECT_TRUE(saw_error);
}

// A sleeping fetch whose deadline timer cannot start its thread is a
// ResourceExhausted reply, not a std::system_error escaping into
// std::terminate. The child caps its own address space so that the timer's
// thread stack does not fit; it is a fresh process ("threadsafe" style), so
// no earlier test left a cached stack behind.
TEST(LatencyBackendTest, TimerThatCannotStartFailsTheFetch) {
  const Graph g = testing::MakeHouseGraph();
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        LatencyConfig config;
        config.mean_ms = 20.0;
        config.sleep_scale = 1.0;
        LatencyBackend backend(std::make_shared<InMemoryBackend>(&g), config);
        testing::CapAddressSpace(testing::DefaultThreadStack() / 4);
        testing::ExitWithStatus(backend.FetchNeighbors(0).status());
      },
      ::testing::ExitedWithCode(0), "ResourceExhausted");
}

TEST(RateLimitBackendTest, WaitsBetweenWindowsAndAttributesToReply) {
  const Graph g = MakeCycle(100).value();
  RateLimitBackend backend(std::make_shared<InMemoryBackend>(&g), {10, 60.0});
  double waited = 0.0;
  for (NodeId u = 0; u < 25; ++u) {
    waited += backend.FetchNeighbors(u)->simulated_seconds;
  }
  // 25 queries at 10 per minute: 2 full window waits.
  EXPECT_DOUBLE_EQ(waited, 120.0);
  EXPECT_DOUBLE_EQ(backend.total_waited_seconds(), 120.0);
}

TEST(RateLimitBackendTest, BatchStillPaysTokenWaits) {
  const Graph g = MakeCycle(100).value();
  RateLimitBackend backend(std::make_shared<InMemoryBackend>(&g), {10, 60.0});
  std::vector<NodeId> nodes(25);
  for (NodeId u = 0; u < 25; ++u) nodes[u] = u;
  auto batch = backend.FetchBatch(nodes);
  ASSERT_TRUE(batch.ok());
  // Rate limits are server-enforced per query: batching does not help.
  EXPECT_DOUBLE_EQ(batch->simulated_seconds, 120.0);
}

TEST(RateLimitBackendTest, CompletionAddsTheStallAsSerialTime) {
  const Graph g = MakeCycle(100).value();
  RateLimitBackend backend(std::make_shared<InMemoryBackend>(&g), {10, 60.0});
  double waited = 0.0;
  double serial = 0.0;
  for (NodeId u = 0; u < 25; ++u) {
    backend.FetchNeighborsCompletion(u, [&](Result<FetchReply> reply) {
      ASSERT_TRUE(reply.ok());
      waited += reply->simulated_seconds;
      serial += reply->serial_seconds;
    });
  }
  EXPECT_DOUBLE_EQ(waited, 120.0);
  EXPECT_DOUBLE_EQ(serial, 120.0);
}

TEST(AccessInterfaceBackendTest, SessionViewBillsWaitingPerSession) {
  const Graph g = MakeCycle(100).value();
  auto backend = std::make_shared<RateLimitBackend>(
      std::make_shared<InMemoryBackend>(&g), RateLimitConfig{10, 60.0});
  AccessInterface a(backend), b(backend);
  for (NodeId u = 0; u < 10; ++u) a.Neighbors(u);  // exhausts the window
  EXPECT_DOUBLE_EQ(a.waited_seconds(), 0.0);
  b.Neighbors(50);  // next query crosses into a fresh window
  EXPECT_DOUBLE_EQ(b.waited_seconds(), 60.0);
  // The wait belongs to the session that incurred it.
  EXPECT_DOUBLE_EQ(a.waited_seconds(), 0.0);
}

TEST(AccessInterfaceBackendTest, PrefetchBillsLikeSequentialButWaitsOnce) {
  const Graph g = testing::MakeTestBA(80, 3);
  LatencyConfig latency;
  latency.mean_ms = 50.0;
  auto stack = BuildBackendStack(&g, {.access = {}, .latency = latency});
  AccessInterface access(stack);
  const std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  access.Prefetch(nodes);
  EXPECT_EQ(access.query_cost(), 10u);
  EXPECT_DOUBLE_EQ(access.waited_seconds(), 0.050);  // one round trip
  // The prefetched lists now serve queries without further fetches.
  for (NodeId u : nodes) access.Neighbors(u);
  EXPECT_EQ(access.query_cost(), 10u);
  EXPECT_EQ(access.meter().backend_fetches, 10u);
  EXPECT_DOUBLE_EQ(access.waited_seconds(), 0.050);
  EXPECT_EQ(access.total_queries(), 10u);
}

TEST(AccessInterfaceBackendTest, MarkRecaptureUnderRandomSubsetViaStack) {
  // EstimateDegreeMarkRecapture under kRandomSubset, exercised through a
  // latency-decorated stack: fresh subsets per call flow through the
  // decorator, repeats are billed as total (not unique) queries, and the
  // Petersen estimate still lands near the true degree.
  const Graph g = MakeStar(201).value();  // center degree 200
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kRandomSubset;
  opts.max_neighbors = 40;
  LatencyConfig latency;
  latency.mean_ms = 10.0;
  auto stack = BuildBackendStack(&g, {.access = opts, .latency = latency});
  AccessInterface access(stack);
  constexpr int kCalls = 30;
  const double est = EstimateDegreeMarkRecapture(access, 0, kCalls);
  EXPECT_NEAR(est, 200.0, 30.0);
  EXPECT_EQ(access.query_cost(), 1u);  // one distinct node...
  EXPECT_EQ(access.total_queries(), static_cast<uint64_t>(kCalls));
  // ...but every repeat really hits the (non-cacheable) backend and waits.
  EXPECT_EQ(access.meter().backend_fetches, static_cast<uint64_t>(kCalls));
  EXPECT_NEAR(access.waited_seconds(), kCalls * 0.010, 1e-9);
}

TEST(AccessInterfaceBackendTest, MarkRecaptureExactWhenBelowCap) {
  const Graph g = testing::MakeHouseGraph();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kRandomSubset;
  opts.max_neighbors = 10;
  auto stack = BuildBackendStack(&g, {.access = opts, .latency = {}});
  AccessInterface access(stack);
  EXPECT_DOUBLE_EQ(EstimateDegreeMarkRecapture(access, 0, 4), 3.0);
}

// --- the acceptance bar ------------------------------------------------------

TEST(BackendAcceptanceTest, EverySamplerDrawsAgainstBothBackends) {
  const Graph g = testing::MakeTestBA(120, 3);
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    const std::string spec = name + ":srw?" +
                             (name.rfind("we", 0) == 0 ? "diameter=4&" : "") +
                             "backend=latency&mean_ms=5&jitter_ms=1";
    // Latency-decorated stack, via the spec string.
    SessionOptions opts;
    opts.seed = 77;
    auto latency_session = SamplingSession::Open(&g, spec, opts);
    ASSERT_TRUE(latency_session.ok()) << spec << ": "
                                      << latency_session.status().ToString();
    std::vector<NodeId> latency_samples;
    ASSERT_TRUE((*latency_session)->DrawInto(&latency_samples, 15).ok())
        << spec;
    const SessionStats stats = (*latency_session)->Stats();
    EXPECT_EQ(stats.backend, "latency(memory)") << spec;
    EXPECT_GT(stats.waited_seconds, 0.0) << spec;

    // Plain in-memory backend, same sampler seed: the sampler draws the
    // exact same nodes — the backend swap is invisible to sampler code.
    const std::string plain =
        name + ":srw" + (name.rfind("we", 0) == 0 ? "?diameter=4" : "");
    auto memory_session = SamplingSession::Open(&g, plain, opts);
    ASSERT_TRUE(memory_session.ok()) << plain;
    std::vector<NodeId> memory_samples;
    ASSERT_TRUE((*memory_session)->DrawInto(&memory_samples, 15).ok());
    EXPECT_EQ((*memory_session)->Stats().backend, "memory");
    EXPECT_EQ(memory_samples, latency_samples) << spec;
  }
}

// --- the sharded origin ------------------------------------------------------

std::shared_ptr<ShardedBackend> MakeSharded(const Graph& g, int shards,
                                            AccessOptions options = {},
                                            ShardPartition partition =
                                                ShardPartition::kModulo) {
  auto sharded_graph = std::make_shared<const ShardedGraph>(
      ShardedGraph::FromGraph(g, shards, partition).value());
  return std::make_shared<ShardedBackend>(sharded_graph,
                                          ShardedBackendOptions{options});
}

TEST(ShardedBackendTest, MatchesInMemoryResponsesNodeForNode) {
  const Graph g = testing::MakeTestBA(80, 3);
  for (ShardPartition partition :
       {ShardPartition::kModulo, ShardPartition::kRange,
        ShardPartition::kDegreeBalanced}) {
    InMemoryBackend memory(&g);
    auto sharded = MakeSharded(g, 4, {}, partition);
    EXPECT_EQ(sharded->num_nodes(), g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      auto a = memory.FetchNeighbors(u);
      auto b = sharded->FetchNeighbors(u);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(b->shard, sharded->ShardOf(u));
      EXPECT_EQ(a->TakeNeighbors(), b->TakeNeighbors()) << "node " << u;
    }
  }
  EXPECT_EQ(MakeSharded(g, 4)->name(), "sharded[hash:4](memory)");
}

TEST(ShardedBackendTest, FixedSubsetsAreShardingInvariant) {
  const Graph g = MakeStar(100).value();
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kFixedSubset;
  opts.max_neighbors = 5;
  opts.seed = 321;
  InMemoryBackend memory(&g, opts);
  auto sharded = MakeSharded(g, 3, opts);
  for (NodeId u : {NodeId{0}, NodeId{1}, NodeId{50}}) {
    EXPECT_EQ(memory.FetchNeighbors(u)->TakeNeighbors(),
              sharded->FetchNeighbors(u)->TakeNeighbors());
  }
}

TEST(ShardedBackendTest, RandomSubsetCallStreamsAreShardingInvariant) {
  // Type-1 responses are keyed on (seed, node, per-node call index), so the
  // same per-node call sequence yields the same fresh subsets no matter how
  // the origin is sharded or how calls to *different* nodes interleave.
  const Graph g = testing::MakeTestBA(60, 5);
  AccessOptions opts;
  opts.restriction = NeighborRestriction::kRandomSubset;
  opts.max_neighbors = 3;
  opts.seed = 77;
  InMemoryBackend memory(&g, opts);
  auto sharded = MakeSharded(g, 3, opts);
  // Different global interleavings, same per-node order.
  std::vector<std::vector<NodeId>> from_memory, from_sharded;
  for (int round = 0; round < 3; ++round) {
    for (NodeId u = 0; u < 10; ++u) {
      from_memory.push_back(memory.FetchNeighbors(u)->TakeNeighbors());
    }
  }
  for (NodeId u = 0; u < 10; ++u) {
    for (int round = 0; round < 3; ++round) {
      from_sharded.push_back(sharded->FetchNeighbors(u)->TakeNeighbors());
    }
  }
  for (NodeId u = 0; u < 10; ++u) {
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(from_memory[static_cast<size_t>(round) * 10 + u],
                from_sharded[static_cast<size_t>(u) * 3 + round])
          << "node " << u << " call " << round;
    }
  }
  EXPECT_FALSE(sharded->deterministic());
}

TEST(ShardedBackendTest, BatchPaysTheSlowestShardAndStallsBillPerShard) {
  // 30 queries against a 10-per-minute budget: the unsharded origin stalls
  // two full windows (120s); split across two shards, each endpoint's own
  // limiter stalls once and the stalls overlap — the batch pays 60s.
  const Graph g = MakeCycle(100).value();
  AccessOptions opts;
  opts.rate_limit = {10, 60.0};
  std::vector<NodeId> nodes(30);
  for (NodeId u = 0; u < 30; ++u) nodes[u] = u;

  RateLimitBackend unsharded(std::make_shared<InMemoryBackend>(&g),
                             opts.rate_limit);
  EXPECT_DOUBLE_EQ(unsharded.FetchBatch(nodes)->simulated_seconds, 120.0);

  auto sharded = MakeSharded(g, 2, opts);
  auto batch = sharded->FetchBatch(nodes);
  ASSERT_TRUE(batch.ok());
  EXPECT_DOUBLE_EQ(batch->simulated_seconds, 60.0);
  ASSERT_EQ(batch->shards.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(batch->shards[i], static_cast<int32_t>(nodes[i] % 2));
  }
  ASSERT_EQ(batch->shard_stalls.size(), 2u);
  EXPECT_DOUBLE_EQ(batch->shard_stalls[0], 60.0);
  EXPECT_DOUBLE_EQ(batch->shard_stalls[1], 60.0);
  const auto counters = sharded->CountersSnapshot();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].fetches, 15u);
  EXPECT_EQ(counters[1].fetches, 15u);
  EXPECT_DOUBLE_EQ(counters[0].stall_seconds, 60.0);
}

TEST(ShardedBackendTest, SessionMeterSplitsFetchesAndStallsByShard) {
  const Graph g = MakeCycle(100).value();
  AccessOptions opts;
  opts.rate_limit = {10, 60.0};
  auto sharded = MakeSharded(g, 2, opts);
  AccessInterface access(sharded);
  for (NodeId u = 0; u < 24; ++u) access.Neighbors(u);  // 12 per shard
  const CostMeter& meter = access.meter();
  ASSERT_EQ(meter.shard_fetches.size(), 2u);
  EXPECT_EQ(meter.shard_fetches[0], 12u);
  EXPECT_EQ(meter.shard_fetches[1], 12u);
  // Each shard's own limiter stalled once past its 10-token window.
  ASSERT_EQ(meter.shard_stall_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(meter.shard_stall_seconds[0], 60.0);
  EXPECT_DOUBLE_EQ(meter.shard_stall_seconds[1], 60.0);
  EXPECT_DOUBLE_EQ(access.waited_seconds(), 120.0);
}

TEST(ShardedBackendTest, SessionStatsExposeShardTelemetry) {
  const Graph g = testing::MakeTestBA(120, 3);
  SessionOptions opts;
  opts.seed = 5;
  auto session = SamplingSession::Open(&g, "burnin:srw?shards=3", opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<NodeId> samples;
  ASSERT_TRUE((*session)->DrawInto(&samples, 5).ok());
  const SessionStats stats = (*session)->Stats();
  EXPECT_EQ(stats.backend, "sharded[hash:3](memory)");
  EXPECT_EQ(stats.backend_shards, 3);
  ASSERT_EQ(stats.shard_fetches.size(), 3u);
  uint64_t total = 0;
  for (uint64_t f : stats.shard_fetches) total += f;
  EXPECT_EQ(total, stats.backend_fetches);
}

// --- the sharded acceptance bar ----------------------------------------------

TEST(ShardedAcceptanceTest, EverySamplerDrawsIdenticallyAcrossShardCounts) {
  // The tentpole invariant: sharding the origin changes WHERE queries are
  // answered, never what they return — so for a fixed seed every registered
  // sampler draws the same nodes on the unsharded backend and on
  // ShardedBackend(shards=1..8), with and without the async executor.
  const Graph g = testing::MakeTestBA(120, 3);
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    const std::string base =
        name + ":srw" + (name.rfind("we", 0) == 0 ? "?diameter=4" : "");
    SessionOptions opts;
    opts.seed = 41;
    auto baseline_session = SamplingSession::Open(&g, base, opts);
    ASSERT_TRUE(baseline_session.ok()) << base;
    std::vector<NodeId> baseline;
    ASSERT_TRUE((*baseline_session)->DrawInto(&baseline, 12).ok()) << base;
    const uint64_t baseline_cost = (*baseline_session)->Stats().query_cost;

    const char sep = base.find('?') == std::string::npos ? '?' : '&';
    for (int shards : {1, 2, 8}) {
      for (const bool async : {false, true}) {
        std::string spec = base + sep + "shards=" + std::to_string(shards) +
                           "&partition=degree";
        if (async) spec += "&window=4";
        auto session = SamplingSession::Open(&g, spec, opts);
        ASSERT_TRUE(session.ok()) << spec << ": "
                                  << session.status().ToString();
        std::vector<NodeId> samples;
        ASSERT_TRUE((*session)->DrawInto(&samples, 12).ok()) << spec;
        EXPECT_EQ(samples, baseline) << spec;
        EXPECT_EQ((*session)->Stats().query_cost, baseline_cost) << spec;
      }
    }
  }
}

TEST(ShardedAcceptanceTest, WalksMatchUnderRandomSubsetRestriction) {
  // kRandomSubset walks traverse via SampleNeighbor over fresh server
  // subsets (the only defined traversal under type 1 — effective-neighbor
  // filtering needs stable lists). The counter-mode subset streams make
  // even these non-deterministic responses identical across shard counts,
  // so the whole walk trajectory is sharding-invariant.
  const Graph g = testing::MakeTestBA(100, 4);
  AccessOptions access;
  access.restriction = NeighborRestriction::kRandomSubset;
  access.max_neighbors = 3;
  access.seed = 99;
  std::vector<NodeId> baseline;
  for (int shards : {0, 1, 4}) {
    std::shared_ptr<AccessBackend> backend;
    if (shards == 0) {
      backend = std::make_shared<InMemoryBackend>(&g, access);
    } else {
      backend = MakeSharded(g, shards, access);
    }
    AccessInterface view(backend);
    Rng walk_rng(1234);
    std::vector<NodeId> walk;
    NodeId cur = 5;
    for (int step = 0; step < 200; ++step) {
      cur = view.SampleNeighbor(cur, walk_rng);
      ASSERT_NE(cur, kInvalidNode);
      walk.push_back(cur);
    }
    if (shards == 0) {
      baseline = walk;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(walk, baseline) << "shards=" << shards;
    }
  }
}

TEST(ShardedAcceptanceTest, WalkerPoolSharesOneShardedOrigin) {
  const Graph g = testing::MakeTestBA(150, 3);
  WalkerPoolOptions pool;
  pool.walkers = 4;
  pool.samples_per_walker = 5;
  pool.session.seed = 7;
  auto baseline = RunWalkerPool(&g, "we:mhrw?diameter=4", pool);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  auto sharded = RunWalkerPool(
      &g, "we:mhrw?diameter=4&shards=4&window=8", pool);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->samples, baseline->samples);
  for (const SessionStats& stats : sharded->stats) {
    EXPECT_EQ(stats.backend_shards, 4);
    EXPECT_EQ(stats.backend, "sharded[hash:4](memory)");
  }
}

TEST(ShardedBackendTest, DecoratorWrappersKeepShardsDiscoverable) {
  // A sharded origin wrapped in an outer decorator still reports its shard
  // count (AsSharded sees through wrappers), so per-shard telemetry is not
  // silently truncated and a correctly-describing spec is accepted.
  const Graph g = testing::MakeTestBA(100, 3);
  SessionOptions opts;
  opts.seed = 3;
  opts.backend = std::make_shared<RateLimitBackend>(MakeSharded(g, 4),
                                                    RateLimitConfig{});
  auto session =
      SamplingSession::Open(&g, "burnin:srw?shards=4&partition=hash", opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<NodeId> samples;
  ASSERT_TRUE((*session)->DrawInto(&samples, 5).ok());
  const SessionStats stats = (*session)->Stats();
  EXPECT_EQ(stats.backend_shards, 4);
  ASSERT_EQ(stats.shard_fetches.size(), 4u);
  uint64_t total = 0;
  for (uint64_t f : stats.shard_fetches) total += f;
  EXPECT_EQ(total, stats.backend_fetches);
}

TEST(ShardedBackendTest, SerialShardServesASyncSubBatchInOneTurn) {
  // One single-threaded shard, 8 sleeping requests: the sub-batch takes one
  // FIFO turn and its members overlap, so the wall clock is one round trip,
  // not the 8 x 20ms of queueing every member separately.
  const Graph g = testing::MakeTestBA(60, 3);
  LatencyConfig latency;
  latency.mean_ms = 20.0;
  latency.sleep_scale = 1.0;
  ShardedBackend sharded(std::make_shared<const ShardedGraph>(
                             ShardedGraph::FromGraph(g, 1).value()),
                         {.latency = latency});
  const std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto start = std::chrono::steady_clock::now();
  auto batch = sharded.FetchBatch(nodes);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(batch.ok());
  EXPECT_DOUBLE_EQ(batch->simulated_seconds, 0.020);
  EXPECT_GE(elapsed, 0.020);
  EXPECT_LT(elapsed, 4 * 0.020);
  EXPECT_EQ(sharded.CountersSnapshot()[0].fetches, nodes.size());
}

// --- sync vs completion parity -----------------------------------------------

// Every decorator stack on every origin kind, built twice from the same
// options: one copy answers synchronously, the other by completion. Both
// paths draw the same latency schedules and tokens in the same order and
// bill through the same BatchLatch fold, so every figure matches exactly.
struct ParityCase {
  std::string label;
  BackendStackOptions options;
};

std::vector<ParityCase> ParityCases(const Graph& g) {
  static const std::string snapshot = [&] {
    const std::string path = ::testing::TempDir() + "wnw_backend_parity.snap";
    WNW_CHECK(WriteGraphSnapshot(g, path).ok());
    return path;
  }();
  LatencyConfig latency;
  latency.mean_ms = 50.0;
  latency.jitter_ms = 10.0;
  latency.failure_rate = 0.3;
  latency.retry_backoff_ms = 100.0;
  latency.max_retries = 64;
  const RateLimitConfig limit{10, 60.0};
  struct Decorators {
    const char* label;
    bool rate_limit;
    bool latency;
  };
  struct Origin {
    const char* label;
    bool snapshot;
    int shards;
  };
  std::vector<ParityCase> cases;
  for (const Decorators& d : {Decorators{"ratelimit", true, false},
                              Decorators{"latency", false, true},
                              Decorators{"both", true, true}}) {
    for (const Origin& o : {Origin{"memory", false, 0},
                            Origin{"snapshot", true, 0},
                            Origin{"sharded2", false, 2},
                            Origin{"sharded3", false, 3}}) {
      ParityCase c{std::string(d.label) + "/" + o.label, {}};
      if (d.rate_limit) c.options.access.rate_limit = limit;
      if (d.latency) c.options.latency = latency;
      c.options.shards = o.shards;
      if (o.snapshot) c.options.snapshot = snapshot;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

std::shared_ptr<AccessBackend> BuildParityStack(const Graph& g,
                                                const ParityCase& c) {
  if (c.options.snapshot.empty()) return BuildBackendStack(&g, c.options);
  return BuildSnapshotBackendStack(c.options).value();
}

void ExpectSameShardCounters(const AccessBackend& a, const AccessBackend& b) {
  ASSERT_EQ(a.AsSharded() == nullptr, b.AsSharded() == nullptr);
  if (a.AsSharded() == nullptr) return;
  const auto want = a.AsSharded()->CountersSnapshot();
  const auto got = b.AsSharded()->CountersSnapshot();
  ASSERT_EQ(want.size(), got.size());
  for (size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(want[s].fetches, got[s].fetches) << "shard " << s;
    EXPECT_EQ(want[s].stall_seconds, got[s].stall_seconds) << "shard " << s;
  }
}

TEST(SyncCompletionParityTest, FetchBatchMatchesTheExecutorBatch) {
  const Graph g = testing::MakeTestBA(120, 3);
  std::vector<NodeId> nodes(30);
  for (NodeId u = 0; u < 30; ++u) nodes[u] = 3 * u;
  for (const ParityCase& c : ParityCases(g)) {
    SCOPED_TRACE(c.label);
    auto sync = BuildParityStack(g, c);
    auto async = BuildParityStack(g, c);
    CompletionExecutor executor({.window = 8});
    // Two batches, so the second starts from carried-over limiter state.
    for (int round = 0; round < 2; ++round) {
      auto want = sync->FetchBatch(nodes);
      auto got = executor.SubmitBatch(async, nodes).Wait();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(want->lists, got->lists);
      EXPECT_EQ(want->shards, got->shards);
      EXPECT_EQ(want->shard_stalls, got->shard_stalls);
      EXPECT_EQ(want->simulated_seconds, got->simulated_seconds);
    }
    ExpectSameShardCounters(*sync, *async);
  }
}

TEST(SyncCompletionParityTest, FetchNeighborsMatchesTheCompletion) {
  const Graph g = testing::MakeTestBA(120, 3);
  for (const ParityCase& c : ParityCases(g)) {
    SCOPED_TRACE(c.label);
    auto sync = BuildParityStack(g, c);
    auto async = BuildParityStack(g, c);
    for (NodeId u = 0; u < 30; ++u) {
      auto want = sync->FetchNeighbors(u);
      std::promise<Result<FetchReply>> promise;
      async->FetchNeighborsCompletion(u, [&](Result<FetchReply> reply) {
        promise.set_value(std::move(reply));
      });
      auto got = promise.get_future().get();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(want->TakeNeighbors(), got->TakeNeighbors());
      EXPECT_EQ(want->shard, got->shard);
      EXPECT_EQ(want->simulated_seconds, got->simulated_seconds);
      EXPECT_EQ(want->serial_seconds, got->serial_seconds);
    }
    ExpectSameShardCounters(*sync, *async);
  }
}

TEST(BackendSpecTest, QueryCacheIsBypassedUnderRandomSubset) {
  // Non-deterministic responses cannot be cached; sessions with a cache
  // still open (no error), the cache is simply never consulted.
  const Graph g = testing::MakeTestBA(60, 4);
  SessionOptions opts;
  opts.access.restriction = NeighborRestriction::kRandomSubset;
  opts.access.max_neighbors = 3;
  opts.query_cache = std::make_shared<QueryCache>();
  ASSERT_TRUE(SamplingSession::Open(&g, "burnin:srw", opts).ok());

  AccessOptions aopts;
  aopts.restriction = NeighborRestriction::kRandomSubset;
  aopts.max_neighbors = 3;
  AccessInterface access(std::make_shared<InMemoryBackend>(&g, aopts),
                         opts.query_cache);
  for (int i = 0; i < 10; ++i) access.Neighbors(0);
  EXPECT_EQ(opts.query_cache->size(), 0u);
  EXPECT_EQ(access.meter().shared_cache_hits, 0u);
  EXPECT_EQ(access.meter().backend_fetches, 10u);  // every call hits origin
  EXPECT_EQ(access.query_cost(), 1u);
}

}  // namespace
}  // namespace wnw
