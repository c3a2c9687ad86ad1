// The CompletionExecutor integrated with the layers above it: the bounded
// in-flight window over a really sleeping origin (completed from its
// deadline timer, so the window costs one thread, not one per slot), the
// access layer's async prefetch and billing, sample-for-sample determinism
// of executor-backed sessions against synchronous ones for EVERY registered
// sampler, shutdown with requests still in flight, the ?window= spec key,
// and walker pools sharing one executor. (The executor's own unit tests are in
// completion_executor_test.cc; key validation is in spec_keys_test.cc.)
// The ASan/UBSan CI job runs this file too — the threading here is
// load-bearing, not decorative.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "access/access_interface.h"
#include "access/completion_executor.h"
#include "access/deadline_timer.h"
#include "access/decorators.h"
#include "access/sharded_backend.h"
#include "core/session.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/thread_stats.h"

namespace wnw {

/// Builds a sharded backend through the constructor that wraps each
/// shard's origin.
class ShardedBackendTestPeer {
 public:
  static std::shared_ptr<ShardedBackend> Make(
      std::shared_ptr<const ShardedGraph> graph,
      ShardedBackend::OriginWrapper wrap_origin) {
    return std::shared_ptr<ShardedBackend>(new ShardedBackend(
        std::move(graph), ShardedBackendOptions{}, std::move(wrap_origin)));
  }
};

namespace {

/// Counts the fetches that reach the origin; wrapped in a sleeping
/// LatencyBackend, it tells served requests apart from cancelled ones.
class CountingBackend final : public AccessBackend {
 public:
  explicit CountingBackend(std::shared_ptr<AccessBackend> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return "counting"; }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const AccessOptions& options() const override { return inner_->options(); }

  Result<FetchReply> FetchNeighbors(NodeId u) override {
    fetches_.fetch_add(1, std::memory_order_relaxed);
    return inner_->FetchNeighbors(u);
  }

  uint64_t fetches() const {
    return fetches_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<AccessBackend> inner_;
  std::atomic<uint64_t> fetches_{0};
};

/// A LatencyBackend whose every request really waits `ms` milliseconds
/// (sleep_scale = 1, no jitter, no failures).
std::shared_ptr<LatencyBackend> Sleeping(std::shared_ptr<AccessBackend> inner,
                                         double ms) {
  LatencyConfig config;
  config.mean_ms = ms;
  config.sleep_scale = 1.0;
  return std::make_shared<LatencyBackend>(std::move(inner), config);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<NodeId> FirstNodes(NodeId n) {
  std::vector<NodeId> nodes(n);
  for (NodeId u = 0; u < n; ++u) nodes[u] = u;
  return nodes;
}

TEST(CompletionExecutorTest, SleepingOriginOverlapsOnOneTimerThread) {
  const Graph g = testing::MakeTestBA(128, 3);
  constexpr double kMs = 5.0;
  auto sleeping = Sleeping(std::make_shared<InMemoryBackend>(&g), kMs);
  CompletionExecutor executor({.window = 3});
  // Sanitizer runtimes start a helper thread along with the process's
  // first thread; let that happen before taking the baseline.
  std::thread([] {}).join();
  const int threads_before = CountProcessThreads();
  const auto start = std::chrono::steady_clock::now();
  std::vector<CompletionExecutor::FetchFuture> futures;
  for (NodeId u = 0; u < 64; ++u) {
    futures.push_back(executor.SubmitFetch(sleeping, u));
  }
  // Sample the process's threads while the window drains: the sleeps
  // overlap on the latency decorator's one timer thread, not on a thread
  // per window slot.
  int threads_peak = threads_before;
  for (auto& future : futures) {
    while (future.wait_for(std::chrono::milliseconds(1)) !=
           std::future_status::ready) {
      threads_peak = std::max(threads_peak, CountProcessThreads());
    }
    ASSERT_TRUE(future.get().ok());
  }
  const double elapsed = SecondsSince(start);
  const double serial = 64 * kMs * 1e-3;
  EXPECT_LT(elapsed, 0.6 * serial) << "window 3 should overlap the sleeps";
  EXPECT_LE(threads_peak, threads_before + 1);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_GT(stats.max_in_flight, 1);  // it really overlapped
  EXPECT_LE(stats.max_in_flight, 3);
}

TEST(CompletionExecutorTest, WindowOneSerializesSleepingOrigin) {
  const Graph g = testing::MakeTestBA(64, 3);
  constexpr double kMs = 4.0;
  auto sleeping = Sleeping(std::make_shared<InMemoryBackend>(&g), kMs);
  CompletionExecutor executor({.window = 1});
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(executor.SubmitBatch(sleeping, FirstNodes(16)).Wait().ok());
  // Timers never fire early, so a serialized run takes at least the sum.
  EXPECT_GE(SecondsSince(start), 16 * kMs * 1e-3);
  EXPECT_EQ(executor.stats().max_in_flight, 1);
}

TEST(CompletionExecutorTest, ExhaustedRetriesComeBackAsAStatus) {
  const Graph g = testing::MakeTestBA(64, 3);
  for (const double sleep_scale : {0.0, 0.05}) {
    LatencyConfig config;
    config.mean_ms = 20.0;
    config.failure_rate = 0.95;
    config.max_retries = 0;
    config.sleep_scale = sleep_scale;
    auto flaky = std::make_shared<LatencyBackend>(
        std::make_shared<InMemoryBackend>(&g), config);
    CompletionExecutor executor({.window = 4});
    auto reply = executor.SubmitBatch(flaky, FirstNodes(16)).Wait();
    ASSERT_FALSE(reply.ok()) << "sleep_scale " << sleep_scale;
    EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(executor.stats().completed, 16u);
  }
}

/// A sharded origin (modulo partition) whose every request really waits
/// `ms` milliseconds, serving each shard one request at a time.
std::shared_ptr<AccessBackend> SleepingShards(const Graph* g, int shards,
                                              double ms) {
  BackendStackOptions stack;
  stack.latency = LatencyConfig{.mean_ms = ms, .sleep_scale = 1.0};
  stack.shards = shards;
  stack.partition = ShardPartition::kModulo;
  return BuildBackendStack(g, stack);
}

/// Requests in flight per shard, as the shards' origins see them.
class ShardProbe {
 public:
  explicit ShardProbe(int shards) : in_flight_(shards, 0), peak_(shards, 0) {}

  void Start(int shard) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t s = static_cast<size_t>(shard);
    if (in_flight_[s]++ == 0) ++busy_;
    peak_[s] = std::max(peak_[s], in_flight_[s]);
    peak_busy_ = std::max(peak_busy_, busy_);
  }

  void End(int shard) {
    std::lock_guard<std::mutex> lock(mu_);
    if (--in_flight_[static_cast<size_t>(shard)] == 0) --busy_;
    ++served_;
  }

  /// Most requests one shard ever had in flight at once.
  std::vector<int> peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }
  /// Most shards ever busy at once.
  int peak_busy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_busy_;
  }
  int served() const {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int> in_flight_;
  std::vector<int> peak_;
  int busy_ = 0;
  int peak_busy_ = 0;
  int served_ = 0;
};

/// A test-only origin under one shard: a request is in flight from the
/// moment the shard starts it until it completes `ms` milliseconds later
/// on a deadline timer, and the probe counts it for that whole time.
class CountingOrigin final : public AccessBackend {
 public:
  CountingOrigin(std::shared_ptr<AccessBackend> inner, int shard,
                 std::shared_ptr<ShardProbe> probe,
                 std::shared_ptr<DeadlineTimer> timer, double ms)
      : inner_(std::move(inner)),
        shard_(shard),
        probe_(std::move(probe)),
        timer_(std::move(timer)),
        ms_(ms) {}

  std::string_view name() const override { return "counting"; }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const AccessOptions& options() const override { return inner_->options(); }
  Result<FetchReply> FetchNeighbors(NodeId u) override {
    return AwaitCompletion(u);
  }

  void FetchNeighborsCompletion(NodeId u, CompletionCallback done) override {
    probe_->Start(shard_);
    const Status armed = timer_->After(ms_ * 1e-3, [this, u, done] {
      Result<FetchReply> reply = inner_->FetchNeighbors(u);
      probe_->End(shard_);
      done(std::move(reply));
    });
    if (!armed.ok()) {
      probe_->End(shard_);
      done(armed);
    }
  }

 private:
  std::shared_ptr<AccessBackend> inner_;
  int shard_;
  std::shared_ptr<ShardProbe> probe_;
  std::shared_ptr<DeadlineTimer> timer_;
  double ms_;
};

/// A serial sharded origin (modulo partition) with a CountingOrigin under
/// every shard.
std::shared_ptr<AccessBackend> CountedShards(
    const Graph& g, int shards, std::shared_ptr<ShardProbe> probe) {
  auto timer = std::make_shared<DeadlineTimer>();
  return ShardedBackendTestPeer::Make(
      std::make_shared<ShardedGraph>(ShardedGraph::FromGraph(g, shards).value()),
      [probe, timer](int s, std::shared_ptr<AccessBackend> origin) {
        return std::make_shared<CountingOrigin>(std::move(origin), s, probe,
                                                timer, /*ms=*/5.0);
      });
}

TEST(ShardedCompletionTest, SerialShardsServeOneRequestAtATime) {
  const Graph g = testing::MakeTestBA(64, 3);
  // One shard: the window admits 8, but the shard's FIFO serves them one
  // after another. Four shards, four requests each: every shard still
  // serves one at a time, and the shards serve in parallel.
  for (const int shards : {1, 4}) {
    auto probe = std::make_shared<ShardProbe>(shards);
    CompletionExecutor executor({.window = 8});
    ASSERT_TRUE(executor
                    .SubmitBatch(CountedShards(g, shards, probe),
                                 FirstNodes(16))
                    .Wait()
                    .ok());
    EXPECT_EQ(executor.stats().max_in_flight, 8) << shards << " shards";
    EXPECT_EQ(probe->served(), 16) << shards << " shards";
    EXPECT_EQ(probe->peak(), std::vector<int>(shards, 1))
        << shards << " shards";
    if (shards > 1) EXPECT_GE(probe->peak_busy(), 2);
  }
}

TEST(ShardedCompletionTest, SyncCallerTakesItsTurnInTheShardFifo) {
  const Graph g = testing::MakeTestBA(64, 3);
  constexpr double kMs = 4.0;
  auto backend = SleepingShards(&g, 1, kMs);
  CompletionExecutor executor({.window = 8});
  const auto start = std::chrono::steady_clock::now();
  auto handle = executor.SubmitBatch(backend, FirstNodes(8));
  std::thread sync_caller([&] {
    for (NodeId u = 8; u < 16; ++u) {
      ASSERT_TRUE(backend->FetchNeighbors(u).ok());
    }
  });
  ASSERT_TRUE(handle.Wait().ok());
  sync_caller.join();
  // Had the synchronous fetches bypassed the FIFO, the shard would have
  // served two requests at once and finished in about half this time.
  EXPECT_GE(SecondsSince(start), 16 * kMs * 1e-3);
  const auto counters = backend->AsSharded()->CountersSnapshot();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].fetches, 16u);
}

TEST(CompletionExecutorTest, BatchRepliesKeepRequestOrder) {
  const Graph g = testing::MakeHouseGraph();
  auto backend = std::make_shared<InMemoryBackend>(&g);
  CompletionExecutor executor({.window = 4});
  const std::vector<NodeId> nodes = {3, 0, 1};
  auto reply = executor.SubmitBatch(backend, nodes).Wait();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->lists.size(), 3u);
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(reply->lists[i],
              backend->FetchNeighbors(nodes[i])->TakeNeighbors());
  }
}

TEST(CompletionExecutorTest, ShutdownWithInFlightRequestsIsSafe) {
  const Graph g = testing::MakeTestBA(128, 3);
  auto counting =
      std::make_shared<CountingBackend>(std::make_shared<InMemoryBackend>(&g));
  auto sleeping = Sleeping(counting, 5.0);
  std::vector<CompletionExecutor::FetchFuture> futures;
  {
    CompletionExecutor executor({.window = 2});
    for (NodeId u = 0; u < 40; ++u) {
      futures.push_back(executor.SubmitFetch(sleeping, u));
    }
    // Destroy immediately: two requests wait on the timer, the rest are
    // still queued.
  }
  // Every future resolves — either with a served reply or with the
  // cancellation status — and none hangs or crashes (ASan checks the rest).
  size_t served = 0, cancelled = 0;
  for (auto& future : futures) {
    const auto reply = future.get();
    if (reply.ok()) {
      ++served;
    } else {
      EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
      ++cancelled;
    }
  }
  EXPECT_EQ(served + cancelled, 40u);
  EXPECT_EQ(served, counting->fetches());
  EXPECT_GT(cancelled, 0u);  // with 5ms requests, shutdown won the race
}

TEST(CompletionExecutorTest, DroppedBatchHandleStillRunsToCompletion) {
  const Graph g = testing::MakeTestBA(64, 3);
  auto sleeping = Sleeping(std::make_shared<InMemoryBackend>(&g), 1.0);
  CompletionExecutor executor({.window = 4});
  {
    auto handle = executor.SubmitBatch(sleeping, FirstNodes(16));
    EXPECT_TRUE(handle.pending());
    // Dropped without Wait(): results are discarded, nothing hangs, and the
    // backend (captured by shared_ptr) stays alive for the requests.
  }
  // Drain by submitting and waiting one more request through the same
  // FIFO queue.
  ASSERT_TRUE(executor.SubmitFetch(sleeping, 0).get().ok());
  EXPECT_EQ(executor.stats().completed, 17u);
}

TEST(AccessInterfaceAsyncTest, PrefetchAsyncFoldsOnWaitWithIdenticalBilling) {
  const Graph g = testing::MakeTestBA(80, 3);
  LatencyConfig latency;
  latency.mean_ms = 50.0;
  auto stack = BuildBackendStack(&g, {.access = {}, .latency = latency});
  auto executor = std::make_shared<CompletionExecutor>(AsyncOptions{});
  AccessInterface access(stack, nullptr, executor);
  const std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  access.PrefetchAsync(nodes);
  EXPECT_TRUE(access.has_pending_prefetch());
  access.Wait();
  EXPECT_FALSE(access.has_pending_prefetch());
  // Billing matches the synchronous batch path exactly: every node pays
  // distinct-node cost, the session waits one (slowest) round trip.
  EXPECT_EQ(access.query_cost(), 10u);
  EXPECT_EQ(access.meter().backend_fetches, 10u);
  EXPECT_EQ(access.meter().prefetch_batches, 1u);
  EXPECT_DOUBLE_EQ(access.waited_seconds(), 0.050);
  for (NodeId u : nodes) access.Neighbors(u);
  EXPECT_EQ(access.meter().backend_fetches, 10u);  // all served from cache
}

TEST(AccessInterfaceAsyncTest, RateLimitStallsBillIdenticallyAsyncVsSync) {
  // Token stalls are server-enforced serially (they never parallelize), so
  // the async batch must bill max(latency) + sum(token stalls) exactly like
  // RateLimitBackend::FetchBatch does on the synchronous path.
  const Graph g = MakeCycle(100).value();
  AccessOptions access_opts;
  access_opts.rate_limit = RateLimitConfig{10, 60.0};
  std::vector<NodeId> nodes(25);
  for (NodeId u = 0; u < 25; ++u) nodes[u] = u;

  auto sync_stack = BuildBackendStack(&g, {.access = access_opts});
  AccessInterface sync_access(sync_stack);
  sync_access.Prefetch(nodes);
  EXPECT_DOUBLE_EQ(sync_access.waited_seconds(), 120.0);  // 2 window stalls

  auto async_stack = BuildBackendStack(&g, {.access = access_opts});
  auto executor =
      std::make_shared<CompletionExecutor>(AsyncOptions{.window = 4});
  AccessInterface async_access(async_stack, nullptr, executor);
  async_access.Prefetch(nodes);
  EXPECT_DOUBLE_EQ(async_access.waited_seconds(), 120.0);
}

TEST(AccessInterfaceAsyncTest, QueryOnPendingNodeFoldsLazily) {
  const Graph g = testing::MakeTestBA(80, 3);
  auto backend = std::make_shared<InMemoryBackend>(&g);
  auto executor = std::make_shared<CompletionExecutor>(AsyncOptions{});
  AccessInterface access(backend, nullptr, executor);
  const std::vector<NodeId> nodes = {10, 11, 12};
  access.PrefetchAsync(nodes);
  // Touching a pending node folds the batch; no duplicate backend fetch.
  const auto list = access.Neighbors(11);
  EXPECT_EQ(std::vector<NodeId>(list.begin(), list.end()),
            backend->FetchNeighbors(11)->TakeNeighbors());
  EXPECT_FALSE(access.has_pending_prefetch());
  EXPECT_EQ(access.meter().backend_fetches, 3u);
  EXPECT_EQ(access.query_cost(), 3u);
}

TEST(AccessInterfaceAsyncTest, DestructionWithPendingPrefetchIsSafe) {
  const Graph g = testing::MakeTestBA(200, 3);
  auto counting =
      std::make_shared<CountingBackend>(std::make_shared<InMemoryBackend>(&g));
  auto executor =
      std::make_shared<CompletionExecutor>(AsyncOptions{.window = 2});
  {
    AccessInterface access(Sleeping(counting, 1.0), nullptr, executor);
    access.PrefetchAsync(FirstNodes(64));
    // Dropped with the batch still in flight; the destructor folds it.
  }
  EXPECT_EQ(counting->fetches(), 64u);
}

// --- the acceptance bar ------------------------------------------------------

TEST(AsyncAcceptanceTest, EverySamplerDrawsIdenticallyAsyncVsSync) {
  const Graph g = testing::MakeTestBA(120, 3);
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    const std::string params =
        name.rfind("we", 0) == 0 ? "?diameter=4" : "";
    const std::string sync_spec = name + ":srw" + params;
    SessionOptions opts;
    opts.seed = 99;
    auto sync_session = SamplingSession::Open(&g, sync_spec, opts);
    ASSERT_TRUE(sync_session.ok()) << sync_spec;
    std::vector<NodeId> sync_samples;
    ASSERT_TRUE((*sync_session)->DrawInto(&sync_samples, 15).ok())
        << sync_spec;
    EXPECT_EQ((*sync_session)->Stats().async_window, 0) << sync_spec;

    // Same sampler seed through a window-bounded executor: the async path
    // must change WHEN requests fly, never what they return or cost.
    SessionOptions async_opts;
    async_opts.seed = 99;
    async_opts.async = AsyncOptions{.window = 4};
    auto async_session = SamplingSession::Open(&g, sync_spec, async_opts);
    ASSERT_TRUE(async_session.ok()) << sync_spec;
    std::vector<NodeId> async_samples;
    ASSERT_TRUE((*async_session)->DrawInto(&async_samples, 15).ok())
        << sync_spec;
    EXPECT_EQ(async_samples, sync_samples) << sync_spec;
    EXPECT_EQ((*async_session)->Stats().query_cost,
              (*sync_session)->Stats().query_cost)
        << sync_spec;
    EXPECT_EQ((*async_session)->Stats().async_window, 4) << sync_spec;
  }
}

TEST(AsyncSpecTest, WindowRidesInSpecStrings) {
  const Graph g = testing::MakeTestBA(60, 3);
  SessionOptions opts;
  opts.seed = 7;
  auto session =
      SamplingSession::Open(&g, "we:mhrw?diameter=4&window=4", opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<NodeId> samples;
  ASSERT_TRUE((*session)->DrawInto(&samples, 5).ok());
  EXPECT_EQ((*session)->Stats().async_window, 4);
  // The reserved keys survive in the canonical spec round-trip.
  EXPECT_NE((*session)->Stats().spec.find("window=4"), std::string::npos);
}

TEST(WalkerPoolTest, PoolOutputsAreWindowInvariant) {
  const Graph g = testing::MakeTestBA(150, 3);
  WalkerPoolOptions narrow;
  narrow.walkers = 4;
  narrow.samples_per_walker = 6;
  narrow.session.seed = 31;
  narrow.session.async = AsyncOptions{.window = 1};
  auto one = RunWalkerPool(&g, "we:mhrw?diameter=4", narrow);
  ASSERT_TRUE(one.ok()) << one.status().ToString();

  WalkerPoolOptions wide = narrow;
  wide.session.async = AsyncOptions{.window = 8};
  auto eight = RunWalkerPool(&g, "we:mhrw?diameter=4", wide);
  ASSERT_TRUE(eight.ok());

  // Scheduling freedom must not leak into outputs or billing.
  EXPECT_EQ(one->samples, eight->samples);
  ASSERT_EQ(one->stats.size(), 4u);
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(one->stats[w].query_cost, eight->stats[w].query_cost) << w;
    EXPECT_EQ(one->samples[w].size(), 6u) << w;
  }
  // Walkers are genuinely distinct chains.
  EXPECT_NE(one->samples[0], one->samples[1]);
}

TEST(WalkerPoolTest, PoolValidatesInput) {
  const Graph g = testing::MakeTestBA(40, 3);
  WalkerPoolOptions options;
  options.walkers = 0;
  EXPECT_EQ(RunWalkerPool(&g, "burnin:srw", options).status().code(),
            StatusCode::kInvalidArgument);
  options.walkers = 2;
  EXPECT_EQ(RunWalkerPool(&g, "nope:srw", options).status().code(),
            StatusCode::kNotFound);
}

TEST(WalkerPoolTest, SharedExecutorSeesAllWalkers) {
  const Graph g = testing::MakeTestBA(150, 3);
  auto executor =
      std::make_shared<CompletionExecutor>(AsyncOptions{.window = 4});
  WalkerPoolOptions options;
  options.walkers = 3;
  options.samples_per_walker = 4;
  options.session.seed = 11;
  options.session.executor = executor;
  auto result = RunWalkerPool(&g, "we:mhrw?diameter=4", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto stats = executor->stats();
  EXPECT_GT(stats.submitted, 0u);
  EXPECT_EQ(stats.submitted, stats.completed);
  uint64_t total_fetches = 0;
  for (const SessionStats& s : result->stats) {
    total_fetches += s.backend_fetches;
    EXPECT_EQ(s.async_window, 4);
  }
  // Every backend fetch of every walker flowed through the shared window.
  EXPECT_EQ(stats.completed, total_fetches);
}

}  // namespace
}  // namespace wnw
