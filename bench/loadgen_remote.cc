// loadgen_remote: saturation bench for the wnw_serve service tier.
//
// Drives a wnw server over loopback through RemoteBackend, the client every
// remote session uses: one client event loop multiplexes every connection,
// so holding 512 requests in flight costs 512 pending frames, not 512
// threads. For each concurrency level it issues --requests
// FetchNeighborsCompletion calls with exactly L in flight (each completion
// issues the next), then prints a QPS vs latency-percentile saturation
// table:
//
//   in_flight   requests   elapsed_s        qps    p50_us    p99_us    max_us   threads
//          16      20000       0.61       32951      412       1190      2201         4
//         512      20000       0.52       38231     12104     16533     21012         4
//
// Percentiles are nearest-rank over the sorted sample; `threads` is the
// level's peak of live OS threads (/proc/self/task) — the number that must
// NOT scale with in_flight.
//
// By default it embeds the server in-process (InMemoryBackend over a
// --dataset graph, the grammar every tool shares, with the reactor pool
// sized by --server-threads); --addr drives an external wnw_serve instead.
// The client's reactor is 1 thread and the server's pool is fixed at
// startup, so thread count does not grow with the number in flight.
//
// Exits 1 when any request fails, when the highest level's thread peak
// exceeds the lowest level's, or when it exceeds cores + 4 plus the
// embedded server's reactor threads; the timings are informational.
//
// Usage:
//   loadgen_remote [--dataset SPEC] [--requests N] [--levels 16,128,512]
//                  [--connections K] [--server-threads N] [--addr HOST:PORT]
//                  [--seed S]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "access/remote_backend.h"
#include "datasets/social_datasets.h"
#include "net/server.h"
#include "random/rng.h"
#include "thread_peak.h"
#include "util/string_util.h"

namespace {

using namespace wnw;
using Clock = std::chrono::steady_clock;

struct Args {
  DatasetSpec dataset = {.kind = DatasetSpec::Kind::kBarabasiAlbert,
                         .nodes = 50000,
                         .edges = 5};
  std::string addr;  // empty = embed the server in-process
  std::string levels = "16,128,512";
  uint64_t requests = 20000;
  uint64_t connections = 8;
  uint64_t server_threads = 0;  // 0 = ServerOptions default
  uint64_t seed = 20260808;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = next();
    if (v == nullptr) return false;
    if (flag == "--dataset") {
      auto dataset = ParseDatasetSpec(v);
      if (!dataset.ok()) {
        std::fprintf(stderr, "loadgen: %s\n",
                     dataset.status().ToString().c_str());
        return false;
      }
      args->dataset = *dataset;
    } else if (flag == "--addr") {
      args->addr = v;
    } else if (flag == "--levels") {
      args->levels = v;
    } else if (flag == "--requests") {
      if (!ParseUint64(v, &args->requests) || args->requests == 0)
        return false;
    } else if (flag == "--connections") {
      if (!ParseUint64(v, &args->connections) || args->connections == 0 ||
          args->connections > 64)
        return false;
    } else if (flag == "--server-threads") {
      if (!ParseUint64(v, &args->server_threads)) return false;
    } else if (flag == "--seed") {
      if (!ParseUint64(v, &args->seed)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(flag).c_str());
      return false;
    }
  }
  return true;
}

/// One concurrency level: L fetches issued up front, then each completion
/// (on the client event loop) issues the next until every node is fetched.
class LevelDriver {
 public:
  LevelDriver(RemoteBackend* remote, std::span<const NodeId> nodes)
      : remote_(remote), nodes_(nodes), latencies_(nodes.size()) {}

  struct Level {
    std::vector<double> latencies;  // seconds, in issue order
    double elapsed = 0.0;
    uint64_t failed = 0;
    int thread_peak = 0;
  };

  Level Run(size_t in_flight) {
    next_ = 0;
    completed_ = 0;
    failed_ = 0;
    done_ = false;
    ThreadPeakPoller threads;
    start_ = Clock::now();
    for (size_t i = 0; i < std::min(in_flight, nodes_.size()); ++i) Issue();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return done_; });
    }
    Level level;
    level.thread_peak = threads.Stop();
    level.latencies = latencies_;
    level.elapsed = std::chrono::duration<double>(end_ - start_).count();
    level.failed = failed_.load();
    return level;
  }

 private:
  void Issue() {
    const size_t i = next_.fetch_add(1);
    if (i >= nodes_.size()) return;
    const Clock::time_point start = Clock::now();
    remote_->FetchNeighborsCompletion(
        nodes_[i], [this, i, start](Result<FetchReply> reply) {
          const Clock::time_point now = Clock::now();
          latencies_[i] = std::chrono::duration<double>(now - start).count();
          if (!reply.ok()) failed_.fetch_add(1);
          Issue();
          if (completed_.fetch_add(1) + 1 == nodes_.size()) {
            std::lock_guard<std::mutex> lock(mu_);
            end_ = now;
            done_ = true;
            cv_.notify_all();
          }
        });
  }

  RemoteBackend* remote_;
  std::span<const NodeId> nodes_;
  std::vector<double> latencies_;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  Clock::time_point start_;
  Clock::time_point end_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

/// Nearest-rank percentile over an ascending-sorted sample: the smallest
/// value with at least ceil(p*N) observations at or below it. The naive
/// `p * (N-1)` index truncates downward — at N=20000 it reports p99 as the
/// 19800th order statistic instead of the 19900th, flattering the tail by
/// a full 0.5%.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loadgen_remote [--dataset SPEC] [--requests N]\n"
                 "                      [--levels 16,128,512] "
                 "[--connections K]\n"
                 "                      [--server-threads N] [--addr H:P] "
                 "[--seed S]\n"
                 "dataset SPEC: %s\n",
                 kDatasetSpecUsage.data());
    return 2;
  }
  std::vector<uint64_t> levels;
  for (const auto level : SplitString(args.levels, ",")) {
    uint64_t parsed = 0;
    if (!ParseUint64(level, &parsed) || parsed == 0) {
      std::fprintf(stderr, "loadgen: bad --levels entry '%s'\n",
                   std::string(level).c_str());
      return 2;
    }
    levels.push_back(parsed);
  }

  // Embedded server (unless --addr points elsewhere).
  Graph graph;
  std::unique_ptr<net::WnwServer> server;
  if (args.addr.empty()) {
    auto generated =
        BuildDatasetGraph(args.dataset, args.seed, kDefaultDatasetScale);
    if (!generated.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    graph = std::move(generated).value();
    auto backend = std::make_shared<InMemoryBackend>(&graph);
    net::ServerOptions options;
    options.threads = static_cast<int>(args.server_threads);
    auto started = net::WnwServer::Start(backend, options);
    if (!started.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
    args.addr = "127.0.0.1:" + std::to_string(server->port());
    std::fprintf(stderr,
                 "loadgen: embedded server — %llu nodes, %d reactor "
                 "threads, port %d\n",
                 static_cast<unsigned long long>(graph.num_nodes()),
                 server->threads(), server->port());
  }

  auto connected = RemoteBackend::Connect(
      args.addr, {.connections = static_cast<int>(args.connections)});
  if (!connected.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<RemoteBackend> remote = std::move(connected).value();
  if (server == nullptr) {
    std::fprintf(stderr, "loadgen: external server %s — %llu nodes\n",
                 args.addr.c_str(),
                 static_cast<unsigned long long>(remote->num_nodes()));
  }

  std::vector<NodeId> nodes(args.requests);
  Rng rng(args.seed ^ 0x10adull);
  for (auto& node : nodes) {
    node = static_cast<NodeId>(rng.NextBounded(remote->num_nodes()));
  }
  LevelDriver driver(remote.get(), nodes);

  // Thread peak is the point of the architecture: 512 in flight must not
  // mean 512 threads.
  uint64_t failed = 0;
  int lowest_level_threads = 0;
  int highest_level_threads = 0;
  const uint64_t lowest = *std::min_element(levels.begin(), levels.end());
  const uint64_t highest = *std::max_element(levels.begin(), levels.end());
  std::printf("%10s %10s %10s %10s %9s %9s %9s %9s %8s\n", "in_flight",
              "requests", "elapsed_s", "qps", "p50_us", "p90_us", "p99_us",
              "max_us", "threads");
  for (const uint64_t level : levels) {
    LevelDriver::Level run = driver.Run(static_cast<size_t>(level));
    std::vector<double>& latencies = run.latencies;
    std::sort(latencies.begin(), latencies.end());
    const double qps = run.elapsed > 0.0
                           ? static_cast<double>(latencies.size()) /
                                 run.elapsed
                           : 0.0;
    std::printf("%10llu %10zu %10.3f %10.0f %9.0f %9.0f %9.0f %9.0f %8d\n",
                static_cast<unsigned long long>(level), latencies.size(),
                run.elapsed, qps, Percentile(latencies, 0.50) * 1e6,
                Percentile(latencies, 0.90) * 1e6,
                Percentile(latencies, 0.99) * 1e6, latencies.back() * 1e6,
                run.thread_peak);
    failed += run.failed;
    if (level == lowest) lowest_level_threads = run.thread_peak;
    if (level == highest) highest_level_threads = run.thread_peak;
  }

  int exit_code = 0;
  if (failed > 0) {
    std::fprintf(stderr, "loadgen: FAIL: %llu requests failed\n",
                 static_cast<unsigned long long>(failed));
    exit_code = 1;
  }
  if (highest_level_threads > lowest_level_threads) {
    std::fprintf(stderr,
                 "loadgen: FAIL: %d threads at %llu in flight, %d at %llu\n",
                 highest_level_threads,
                 static_cast<unsigned long long>(highest),
                 lowest_level_threads,
                 static_cast<unsigned long long>(lowest));
    exit_code = 1;
  }
  // The absolute ceiling: the client's threads stay near the core count
  // whatever the number in flight; the embedded server's reactors are
  // counted on top, since they live in this process.
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const int ceiling = cores + 4 + (server != nullptr ? server->threads() : 0);
  if (highest_level_threads > ceiling) {
    std::fprintf(stderr,
                 "loadgen: FAIL: %d threads at %llu in flight, limit cores+4"
                 "+server = %d\n",
                 highest_level_threads,
                 static_cast<unsigned long long>(highest), ceiling);
    exit_code = 1;
  }
  return exit_code;
}
