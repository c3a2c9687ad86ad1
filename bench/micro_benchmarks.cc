// Google-benchmark microbenchmarks for the hot substrate paths: CSR
// iteration, walk steps (SRW/MHRW), weighted sampling, backward estimation,
// and the analysis tooling. These guard the library's performance envelope
// rather than reproduce a paper artifact.
#include <benchmark/benchmark.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <unordered_map>

#include "access/access_interface.h"
#include "access/remote_backend.h"
#include "access/sharded_backend.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "net/wire.h"
#include "storage/snapshot.h"
#include "util/check.h"
#include "core/backward_estimator.h"
#include "core/crawler.h"
#include "core/session.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "mcmc/convergence.h"
#include "mcmc/distribution.h"
#include "mcmc/transition.h"
#include "mcmc/walker.h"
#include "random/sampling.h"

namespace wnw {
namespace {

const Graph& BenchGraph() {
  static const Graph g = [] {
    Rng rng(42);
    return MakeBarabasiAlbert(100000, 8, rng).value();
  }();
  return g;
}

void BM_GraphGenerateBA(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    auto g = MakeBarabasiAlbert(n, 8, rng).value();
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GraphGenerateBA)->Arg(10000)->Arg(100000);

void BM_NeighborIteration(benchmark::State& state) {
  const Graph& g = BenchGraph();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.Neighbors(u)) sum += v;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_NeighborIteration);

// BenchGraph() round-tripped through the snapshot file and mmap'd back —
// identical adjacency bits, file-backed pages.
const Graph& BenchMmapGraph() {
  static const Graph g = [] {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                             "/wnw_micro_benchmarks.snap";
    WNW_CHECK(WriteGraphSnapshot(BenchGraph(), path).ok());
    auto loaded = LoadGraphSnapshot(path);
    WNW_CHECK(loaded.ok());
    WNW_CHECK(loaded->graph.storage_mapped());
    std::remove(path.c_str());  // POSIX: the mapping outlives the unlink
    return loaded->graph;
  }();
  return g;
}

// The storage-view cost question: does serving the CSR from an mmap'd
// snapshot slow down the sequential neighbor scan vs the heap arrays? After
// first touch (the static init walks the file once via checksum + CSR
// validation, so pages are warm) the two should be indistinguishable — the
// Array<T> view compiles to the same data-pointer load either way.
void BM_NeighborsHeap(benchmark::State& state) {
  const Graph& g = BenchGraph();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.Neighbors(u)) sum += v;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_NeighborsHeap);

void BM_NeighborsMmap(benchmark::State& state) {
  const Graph& g = BenchMmapGraph();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.Neighbors(u)) sum += v;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_NeighborsMmap);

void BM_BfsFullGraph(benchmark::State& state) {
  const Graph& g = BenchGraph();
  for (auto _ : state) {
    auto dist = BfsDistances(g, 0);
    benchmark::DoNotOptimize(dist[g.num_nodes() - 1]);
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_BfsFullGraph);

void BM_SrwSteps(benchmark::State& state) {
  const Graph& g = BenchGraph();
  AccessInterface access(&g);
  SimpleRandomWalk srw;
  Rng rng(3);
  NodeId cur = 0;
  for (auto _ : state) {
    cur = srw.Step(access, cur, rng);
    benchmark::DoNotOptimize(cur);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SrwSteps);

void BM_MhrwSteps(benchmark::State& state) {
  const Graph& g = BenchGraph();
  AccessInterface access(&g);
  MetropolisHastingsWalk mhrw;
  Rng rng(4);
  NodeId cur = 0;
  for (auto _ : state) {
    cur = mhrw.Step(access, cur, rng);
    benchmark::DoNotOptimize(cur);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MhrwSteps);

void BM_BackendFetchArena(benchmark::State& state) {
  // The origin hot path after the arena refactor: an unrestricted fetch is
  // a span into the CSR adjacency arena — no copy, no allocation.
  const Graph& g = BenchGraph();
  InMemoryBackend backend(&g);
  NodeId u = 0;
  for (auto _ : state) {
    auto reply = backend.FetchNeighbors(u);
    benchmark::DoNotOptimize(reply->neighbors.data());
    u = (u + 1) % static_cast<NodeId>(g.num_nodes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackendFetchArena);

void BM_BackendFetchCopyOut(benchmark::State& state) {
  // The pre-refactor behavior for comparison: materialize every reply into
  // an owned vector (what FetchNeighbors used to do unconditionally). The
  // delta against BM_BackendFetchArena is the per-fetch allocation+copy the
  // arena eliminated.
  const Graph& g = BenchGraph();
  InMemoryBackend backend(&g);
  NodeId u = 0;
  for (auto _ : state) {
    auto reply = backend.FetchNeighbors(u);
    const std::vector<NodeId> list = reply->TakeNeighbors();
    benchmark::DoNotOptimize(list.data());
    u = (u + 1) % static_cast<NodeId>(g.num_nodes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackendFetchCopyOut);

void BM_LocalCacheSpan(benchmark::State& state) {
  // The span-stable session cache: a first-touch sweep over every node where
  // each admit keeps the arena-backed span (AdmitView) — no per-session copy
  // of any neighbor list. Pair with BM_LocalCacheCopy: the delta is the
  // allocation+memcpy the span-stable path removes from every cold fetch.
  const Graph& g = BenchGraph();
  auto backend = std::make_shared<InMemoryBackend>(&g);
  for (auto _ : state) {
    AccessInterface access(backend);
    uint64_t sum = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto nbrs = access.Neighbors(u);
      sum += nbrs.empty() ? 0 : nbrs.front();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_LocalCacheSpan);

void BM_LocalCacheCopy(benchmark::State& state) {
  // The copying admit path (what EVERY fetch paid before the span-stable
  // refactor, and what shared-cache hits still pay — the shared cache may
  // evict, so the session must own a copy): the same first-touch sweep, but
  // served out of a pre-warmed QueryCache so each admit copies the list into
  // session-owned storage. Includes the cache's shard-lock + map lookup,
  // which is the real cost of that path too.
  const Graph& g = BenchGraph();
  auto backend = std::make_shared<InMemoryBackend>(&g);
  auto cache = std::make_shared<QueryCache>();
  {
    AccessInterface warmer(backend, cache);
    for (NodeId u = 0; u < g.num_nodes(); ++u) warmer.Neighbors(u);
  }
  for (auto _ : state) {
    AccessInterface access(backend, cache);
    uint64_t sum = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto nbrs = access.Neighbors(u);
      sum += nbrs.empty() ? 0 : nbrs.front();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_LocalCacheCopy);

void BM_LocalCacheFlat(benchmark::State& state) {
  // Warm-hit probes through the session cache — the hottest lookup in any
  // walk (every revisited node resolves here without touching the backend).
  // The cache is the flat open-addressed FlatNodeMap; compare against
  // BM_LocalCacheStdMap below for the node-based-map cost this replaced.
  const Graph& g = BenchGraph();
  auto backend = std::make_shared<InMemoryBackend>(&g);
  AccessInterface access(backend);
  for (NodeId u = 0; u < g.num_nodes(); ++u) access.Neighbors(u);  // warm
  Rng rng(99);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    const auto nbrs = access.Neighbors(u);
    benchmark::DoNotOptimize(nbrs.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalCacheFlat);

void BM_FlatNodeMapProbe(benchmark::State& state) {
  // The isolated structure: FlatNodeMap hit probes over a walk-sized
  // working set, head-to-head with BM_StdUnorderedMapProbe. The delta is
  // the pointer chase + hash-node overhead the flat table removes from
  // every cached Neighbors() call.
  constexpr NodeId kEntries = 1 << 16;
  FlatNodeMap<std::span<const NodeId>> map;
  const Graph& g = BenchGraph();
  for (NodeId u = 0; u < kEntries; ++u) map.Emplace(u, g.Neighbors(u));
  Rng rng(7);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(kEntries));
    benchmark::DoNotOptimize(map.Find(u));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatNodeMapProbe);

void BM_StdUnorderedMapProbe(benchmark::State& state) {
  constexpr NodeId kEntries = 1 << 16;
  std::unordered_map<NodeId, std::span<const NodeId>> map;
  const Graph& g = BenchGraph();
  for (NodeId u = 0; u < kEntries; ++u) map.emplace(u, g.Neighbors(u));
  Rng rng(7);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(kEntries));
    const auto it = map.find(u);
    benchmark::DoNotOptimize(it == map.end() ? nullptr : it->second.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdUnorderedMapProbe);

void BM_HitCountLookup(benchmark::State& state) {
  // WS-BW's probe pattern: one HitCountHistory::Count per backward-step
  // candidate, ~13% of which hit on the we_local workload. The history
  // holds 4096 random 13-step paths over the lower quarter of
  // BenchGraph()'s ids; the probe stream mixes recorded (node, step) pairs
  // with ids from the upper three quarters, which no path visited, in that
  // ratio. Compare per-probe time with BM_FlatNodeMapProbe (hits only).
  constexpr int kWalkLength = 13;
  const NodeId n = static_cast<NodeId>(BenchGraph().num_nodes());
  const NodeId recorded_range = n / 4;
  HitCountHistory history(kWalkLength);
  std::vector<std::pair<NodeId, int>> recorded;
  std::vector<NodeId> path(kWalkLength + 1);
  Rng rng(7);
  for (int w = 0; w < 4096; ++w) {
    for (int s = 0; s <= kWalkLength; ++s) {
      path[static_cast<size_t>(s)] =
          static_cast<NodeId>(rng.NextBounded(recorded_range));
      recorded.emplace_back(path[static_cast<size_t>(s)], s);
    }
    history.RecordWalk(path);
  }
  std::vector<std::pair<NodeId, int>> probes(1 << 16);
  for (auto& probe : probes) {
    if (rng.NextBounded(100) < 13) {
      probe = recorded[rng.NextBounded(recorded.size())];
    } else {
      probe = {recorded_range + static_cast<NodeId>(
                                    rng.NextBounded(n - recorded_range)),
               static_cast<int>(rng.NextBounded(kWalkLength + 1))};
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto [u, step] = probes[i];
    benchmark::DoNotOptimize(history.Count(u, step));
    i = (i + 1) & (probes.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitCountLookup);

void BM_FrameEncode(benchmark::State& state) {
  // Wire-protocol encode for a typical FetchNeighbors reply (a BA-graph
  // neighbor list behind a 24-byte frame header). This plus BM_FrameDecode
  // bounds the serialization tax a remote fetch pays over the arena fetch.
  const Graph& g = BenchGraph();
  const auto neighbors = g.Neighbors(12345);
  std::vector<std::byte> payload;
  std::vector<std::byte> wire;
  uint64_t id = 0;
  for (auto _ : state) {
    payload.clear();
    wire.clear();
    net::EncodeNeighborsReply(0, 0.0, 0.0, neighbors, &payload);
    net::EncodeFrame({.opcode = net::Opcode::kFetchNeighbors,
                      .request_id = ++id,
                      .payload = payload},
                     &wire);
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_FrameEncode);

void BM_FrameDecode(benchmark::State& state) {
  const Graph& g = BenchGraph();
  std::vector<std::byte> payload;
  std::vector<std::byte> wire;
  net::EncodeNeighborsReply(0, 0.0, 0.0, g.Neighbors(12345), &payload);
  net::EncodeFrame({.opcode = net::Opcode::kFetchNeighbors,
                    .request_id = 7,
                    .payload = payload},
                   &wire);
  for (auto _ : state) {
    net::DecodedFrame frame;
    auto consumed = net::DecodeFrame(wire, &frame);
    auto reply = net::DecodeNeighborsReply(frame.payload);
    benchmark::DoNotOptimize(*consumed);
    benchmark::DoNotOptimize(reply->neighbors.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_FrameDecode);

// One connection to a one-reactor loopback server over BenchGraph().
RemoteBackend& BenchRemote() {
  static const auto server = [] {
    auto backend = std::make_shared<InMemoryBackend>(&BenchGraph());
    net::ServerOptions options;
    options.threads = 1;
    return net::WnwServer::Start(backend, options).value();
  }();
  static const auto remote = [] {
    return RemoteBackend::Connect(
               "127.0.0.1:" + std::to_string(server->port()),
               {.connections = 1})
        .value();
  }();
  return *remote;
}

void BM_RemoteFetch(benchmark::State& state) {
  // A full blocking remote fetch over loopback — encode, send, the
  // server's epoll dispatch, arena fetch and reply encode, then poll, recv
  // and decode — against the in-process BM_BackendFetchArena baseline.
  // This is the paper's regime: the wire, not the lookup, dominates
  // per-query cost. The connection is idle between fetches, so the calling
  // thread makes each round trip itself; the client event loop stays
  // asleep. Back to back, the caller and the server's reactor spin through
  // each wait (net::kSpinBeforePark) instead of parking. Real time sets
  // the iteration count and items/s: CPU time counts the calling thread
  // only, so a spinning caller and a parked one would look alike there.
  RemoteBackend& remote = BenchRemote();
  const Graph& g = BenchGraph();
  NodeId u = 0;
  for (auto _ : state) {
    auto reply = remote.FetchNeighbors(u);
    benchmark::DoNotOptimize(reply->neighbors.data());
    u = (u + 1) % static_cast<NodeId>(g.num_nodes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteFetch)->UseRealTime();

void BM_RemoteFetchChained(benchmark::State& state) {
  // BM_RemoteFetch's fetches, one in flight, but each issued from the
  // previous one's completion on the client event loop: the completion
  // path, which a blocking fetch also takes on a busy connection. Each
  // fetch is a post to the loop, a send on the next loop turn, and an
  // epoll wake on the reply. Wall time only: the benchmark thread just
  // waits for each chain of kChain fetches.
  constexpr int64_t kChain = 256;
  RemoteBackend& remote = BenchRemote();
  const NodeId n = static_cast<NodeId>(BenchGraph().num_nodes());
  NodeId u = 0;
  int64_t left = 0;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::function<void(Result<FetchReply>)> next =
      [&](Result<FetchReply> reply) {
        benchmark::DoNotOptimize(reply->neighbors.data());
        if (--left > 0) {
          u = (u + 1) % n;
          remote.FetchNeighborsCompletion(u, next);
          return;
        }
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_one();
      };
  while (state.KeepRunningBatch(kChain)) {
    left = kChain;
    done = false;
    remote.FetchNeighborsCompletion(u, next);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteFetchChained)->UseRealTime();

void BM_TimerWheelRpcTurn(benchmark::State& state) {
  // One RPC's worth of reactor timer work, as RemoteBackend drives it: arm
  // a 5 s deadline, derive the epoll timeout, cancel on the reply, sweep.
  // Simulated time advances at ~4.5k RPC/s, the we_remote rate, so a wheel
  // that kept cancelled deadlines until their tick would carry ~22k of them
  // at steady state. `range(0)` other deadlines stay live throughout,
  // spread over the 5 s window and re-armed when they fire. The time per
  // iteration must not grow with the iteration count (= cancels so far).
  constexpr double kDeadlineSeconds = 5.0;
  constexpr double kRpcSeconds = 1.0 / 4500;
  net::TimerWheel wheel;
  double now = 0.0;
  std::function<void()> rearm = [&] {
    wheel.Add(now, kDeadlineSeconds, rearm);
  };
  const int64_t live = state.range(0);
  for (int64_t i = 0; i < live; ++i) {
    wheel.Add(now, kDeadlineSeconds * static_cast<double>(i + 1) /
                       static_cast<double>(live),
              rearm);
  }
  for (auto _ : state) {
    const uint64_t id = wheel.Add(now, kDeadlineSeconds, [] {});
    benchmark::DoNotOptimize(wheel.NextDelay(now));
    wheel.Cancel(id);
    now += kRpcSeconds;
    wheel.AdvanceTo(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerWheelRpcTurn)->Arg(0)->Arg(1000)->Arg(20000);

void BM_ShardedBackendFetch(benchmark::State& state) {
  // Routed fetch through the sharded origin (service lock + shard lookup):
  // the per-request overhead sharding adds over the flat arena fetch.
  const Graph& g = BenchGraph();
  static const auto sharded_graph = std::make_shared<const ShardedGraph>(
      ShardedGraph::FromGraph(g, 8, ShardPartition::kModulo).value());
  ShardedBackend backend(sharded_graph);
  NodeId u = 0;
  for (auto _ : state) {
    auto reply = backend.FetchNeighbors(u);
    benchmark::DoNotOptimize(reply->neighbors.data());
    u = (u + 1) % static_cast<NodeId>(g.num_nodes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedBackendFetch);

void BM_WeightedPickLinear(benchmark::State& state) {
  Rng build_rng(7);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (double& w : weights) w = build_rng.NextDouble() + 0.01;
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedPick(weights, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeightedPickLinear)->Arg(16)->Arg(256);

void BM_BackwardEstimateOnce(benchmark::State& state) {
  const Graph& g = BenchGraph();
  AccessInterface access(&g);
  SimpleRandomWalk srw;
  const int t = static_cast<int>(state.range(0));
  const CrawlBall ball = CrawlBall::Crawl(access, srw, 0, 2);
  const BackwardEstimator estimator(&srw, 0, {}, &ball);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.EstimateOnce(access, 12345, t, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackwardEstimateOnce)->Arg(11)->Arg(21);

void BM_BackwardEstimateWeighted(benchmark::State& state) {
  // WS-BW + crawl, the full heuristic set, over a history of range(0)
  // recorded MHRW forward walks of length 6 from node 0. Each iteration
  // estimates p_6 at the next recorded endpoint, so the picks lean on the
  // history as a WE draw's do.
  const Graph& g = BenchGraph();
  AccessInterface access(&g);
  MetropolisHastingsWalk mhrw;
  constexpr int kWalkLength = 6;
  const CrawlBall ball = CrawlBall::Crawl(access, mhrw, 0, 1);
  HitCountHistory history(kWalkLength);
  std::vector<NodeId> endpoints;
  Rng walk_rng(12);
  std::vector<NodeId> path;
  for (int64_t w = 0; w < state.range(0); ++w) {
    Walk(access, mhrw, 0, kWalkLength, walk_rng, &path);
    history.RecordWalk(path);
    endpoints.push_back(path.back());
  }
  const BackwardEstimator estimator(&mhrw, 0, {.weighted = true}, &ball,
                                    &history);
  Rng rng(13);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.EstimateOnce(access, endpoints[next], kWalkLength, rng));
    if (++next == endpoints.size()) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackwardEstimateWeighted)->Arg(100)->Arg(10000);

void BM_WeDraw(benchmark::State& state) {
  // One WALK-ESTIMATE draw in perfbench we_local's spec: forward walk,
  // backward estimation of the candidate's p_t with both heuristics, and
  // the acceptance test. Each run opens a fresh session, whose hit history
  // and caches then warm up over the iterations as a long session's do.
  SessionOptions options;
  options.seed = 1;
  auto session = std::move(SamplingSession::Open(
                               &BenchGraph(), "we:mhrw?diameter=6", options))
                     .value();
  for (auto _ : state) {
    const auto sample = session->Draw();
    WNW_CHECK(sample.ok());
    benchmark::DoNotOptimize(*sample);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeDraw);

void BM_GewekeZScore(benchmark::State& state) {
  GewekeMonitor monitor;
  Rng rng(10);
  for (int i = 0; i < 2000; ++i) monitor.Add(rng.NextGaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.ZScore());
  }
}
BENCHMARK(BM_GewekeZScore);

void BM_ExactDistributionStep(benchmark::State& state) {
  Rng rng(11);
  const Graph g = MakeBarabasiAlbert(5000, 5, rng).value();
  SimpleRandomWalk srw;
  const auto tm = TransitionMatrix::Build(g, srw);
  std::vector<double> p(g.num_nodes(), 0.0);
  p[0] = 1.0;
  for (auto _ : state) {
    p = tm.Multiply(p);
    benchmark::DoNotOptimize(p[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_ExactDistributionStep);

}  // namespace
}  // namespace wnw

BENCHMARK_MAIN();
