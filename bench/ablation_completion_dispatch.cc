// Completion-dispatch gate: a window of in-flight remote requests costs
// pending frames, not parked threads. It runs over a REAL loopback wnw
// server in a forked child process, so the parent's /proc/self/task count
// measures only the client side: the main thread, the RemoteBackend event
// loop, and whatever the executor spawns (nothing).
//
//   identity — for every registered sampler family, RunWalkEngine over the
//     remote backend must emit byte-identical per-walker samples at
//     identical logical query cost to the in-process run. A dispatcher that
//     changes the estimator is wrong, not fast.
//
//   threads — with 512 fetches in flight, the process's live OS thread
//     count must stay <= cores + 4.
//
// The sweep's wall-clock (best of WNW_TRIALS runs per window) is printed,
// not gated. The thread-pool dispatch this once raced is gone; its last
// numbers are frozen in bench/results/BENCH_completion_dispatch.json.
//
// Exits nonzero on any violation. Env: WNW_TRIALS, WNW_SEED, WNW_SCALE
// (scales the graph and the request count).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/backend.h"
#include "access/completion_executor.h"
#include "access/remote_backend.h"
#include "core/registry.h"
#include "engine/walk_engine.h"
#include "experiments/harness.h"
#include "graph/generators.h"
#include "net/server.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_stats.h"

namespace {

using namespace wnw;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The served graph is rebuilt from (seed, n, m) on both sides of the
/// fork, so the parent's in-process identity runs walk the exact graph the
/// child serves without shipping it across.
Result<Graph> BuildGraph(uint64_t seed, NodeId n, uint32_t m) {
  Rng rng(seed);
  return MakeBarabasiAlbert(n, m, rng);
}

struct ServerChild {
  pid_t pid = -1;
  int port = 0;
};

/// Forks FIRST — before this process owns any threads — and stands the
/// server up in the child: its reactor pool, accept loop, and backend
/// never appear in the parent's /proc/self/task, so the thread gate
/// measures the client architecture and nothing else.
bool StartServerChild(uint64_t seed, NodeId n, uint32_t m,
                      ServerChild* child) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    auto graph = BuildGraph(seed, n, m);
    if (!graph.ok()) ::_exit(3);
    auto backend = std::make_shared<InMemoryBackend>(&*graph);
    auto server = net::WnwServer::Start(backend, {.threads = 2});
    if (!server.ok()) ::_exit(3);
    const int port = (*server)->port();
    if (::write(fds[1], &port, sizeof(port)) != sizeof(port)) ::_exit(3);
    ::close(fds[1]);
    for (;;) ::pause();  // parent SIGKILLs us when done
  }
  ::close(fds[1]);
  const bool got = ::read(fds[0], &child->port, sizeof(child->port)) ==
                   sizeof(child->port);
  ::close(fds[0]);
  child->pid = pid;
  if (!got) {
    std::fprintf(stderr, "GATE: server child died before reporting a port\n");
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }
  return true;
}

void StopServerChild(const ServerChild& child) {
  if (child.pid <= 0) return;
  ::kill(child.pid, SIGKILL);
  ::waitpid(child.pid, nullptr, 0);
}

RemoteBackendOptions ClientOptions() {
  RemoteBackendOptions options;
  options.connections = 2;
  options.deadline_ms = 10000.0;
  options.max_retries = 2;
  options.retry_backoff_ms = 10.0;
  options.connect_timeout_ms = 2000.0;
  return options;
}

struct IdentityCase {
  const char* family;  // registry name, for coverage accounting
  const char* spec;
};

// One spec per registered sampler family; the coverage check below fails
// the gate if the registry grows a family this table misses.
constexpr IdentityCase kIdentityCases[] = {
    {"walk", "walk:srw?steps=6"},
    {"burnin", "burnin:mhrw?max_steps=400"},
    {"longrun", "longrun:lazy?thinning=3&max_steps=400"},
    {"we", "we:mhrw?diameter=3"},
    {"we-path", "we-path:srw?diameter=3"},
};

/// Gate 1: in-process vs remote, per family.
bool RunIdentityGate(const Graph& graph, const std::string& addr,
                     uint64_t seed) {
  bool ok = true;
  std::vector<std::string> families;
  for (const IdentityCase& c : kIdentityCases) families.push_back(c.family);
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    if (std::find(families.begin(), families.end(), name) == families.end()) {
      std::fprintf(stderr,
                   "GATE: sampler family '%s' has no identity case\n",
                   name.c_str());
      ok = false;
    }
  }

  constexpr uint64_t kWalkers = 4;
  constexpr uint64_t kSamples = 3;
  int runs = 0;
  for (const IdentityCase& c : kIdentityCases) {
    EngineOptions local_options;
    local_options.walkers = kWalkers;
    local_options.samples_per_walker = kSamples;
    local_options.session.seed = seed;
    const auto local = RunWalkEngine(&graph, c.spec, local_options);
    if (!local.ok()) {
      std::fprintf(stderr, "GATE: local run failed for %s: %s\n", c.spec,
                   local.status().ToString().c_str());
      ok = false;
      continue;
    }

    EngineOptions remote_options;
    remote_options.walkers = kWalkers;
    remote_options.samples_per_walker = kSamples;
    remote_options.session.seed = seed;
    remote_options.session.remote = ClientOptions();
    const std::string spec = StrFormat(
        "%s%cbackend=remote&addr=%s&window=8", c.spec,
        std::string_view(c.spec).find('?') == std::string_view::npos ? '?'
                                                                     : '&',
        addr.c_str());
    const auto remote = RunWalkEngine(&graph, spec, remote_options);
    ++runs;
    if (!remote.ok()) {
      std::fprintf(stderr, "GATE: remote run failed for %s: %s\n",
                   spec.c_str(), remote.status().ToString().c_str());
      ok = false;
      continue;
    }
    for (size_t w = 0; w < kWalkers; ++w) {
      const auto remote_span = remote->SamplesFor(w);
      const auto local_span = local->SamplesFor(w);
      if (!std::equal(remote_span.begin(), remote_span.end(),
                      local_span.begin(), local_span.end())) {
        std::fprintf(stderr, "GATE: samples diverged: %s walker %zu\n",
                     c.spec, w);
        ok = false;
      }
      if (remote->walker_stats[w].query_cost !=
              local->walker_stats[w].query_cost ||
          remote->walker_stats[w].total_queries !=
              local->walker_stats[w].total_queries) {
        std::fprintf(stderr, "GATE: query cost diverged: %s walker %zu\n",
                     c.spec, w);
        ok = false;
      }
    }
  }
  if (ok) {
    std::printf(
        "# identity: %d remote engine runs (one per family) byte-identical "
        "to in-process at identical query cost\n",
        runs);
  }
  return ok;
}

struct SweepPoint {
  int window = 0;
  double wall_seconds = 0.0;  // best of env.trials
  double qps = 0.0;
  int thread_peak = 0;  // sampled while the executor was live
};

int Run() {
  const BenchEnv env = ReadBenchEnv(/*default_trials=*/3,
                                    /*default_scale=*/1.0);

  const NodeId n = static_cast<NodeId>(20000.0 * env.scale);
  constexpr uint32_t kM = 5;
  ServerChild child;
  if (!StartServerChild(env.seed, n, kM, &child)) return 1;
  const std::string addr = StrFormat("127.0.0.1:%d", child.port);
  std::fprintf(stderr, "# server child pid %d serving BA n=%u m=%u on %s\n",
               static_cast<int>(child.pid), static_cast<unsigned>(n), kM,
               addr.c_str());

  int exit_code = 0;
  {
    const auto graph = BuildGraph(env.seed, n, kM);
    if (!graph.ok()) {
      std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
      StopServerChild(child);
      return 1;
    }

    // --- gate 1: identity against the in-process origin ---------------------
    bool ok = RunIdentityGate(*graph, addr, env.seed + 1);

    // --- gate 2: thread ceiling ---------------------------------------------
    auto connected = RemoteBackend::Connect(addr, ClientOptions());
    if (!connected.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   connected.status().ToString().c_str());
      StopServerChild(child);
      return 1;
    }
    std::shared_ptr<RemoteBackend> remote = std::move(connected).value();

    const uint64_t kRequests =
        std::max<uint64_t>(512, static_cast<uint64_t>(4000.0 * env.scale));
    std::vector<NodeId> nodes(kRequests);
    Rng node_rng(env.seed + 2);
    for (NodeId& u : nodes) {
      u = static_cast<NodeId>(node_rng.NextBounded(n));
    }

    const int cores = std::max(1u, std::thread::hardware_concurrency());
    std::vector<SweepPoint> sweep;
    std::vector<std::vector<NodeId>> reference_lists;  // cross-window identity
    for (const int window : {64, 512}) {
      SweepPoint point;
      point.window = window;
      for (int trial = 0; trial < env.trials; ++trial) {
        CompletionExecutor executor({.window = window});
        const double t0 = NowSeconds();
        auto handle = executor.SubmitBatch(remote, nodes);
        auto reply = handle.Wait();
        const double wall = NowSeconds() - t0;
        // Sampled while the executor and the remote client are live.
        point.thread_peak = std::max(point.thread_peak, CountProcessThreads());
        if (!reply.ok()) {
          std::fprintf(stderr, "GATE: batch failed (window=%d): %s\n",
                       window, reply.status().ToString().c_str());
          ok = false;
          break;
        }
        if (reference_lists.empty()) {
          reference_lists = reply->lists;
        } else if (reply->lists != reference_lists) {
          std::fprintf(stderr,
                       "GATE: batch replies diverged (window=%d)\n", window);
          ok = false;
        }
        if (trial == 0 || wall < point.wall_seconds) {
          point.wall_seconds = wall;
        }
      }
      point.qps = point.wall_seconds > 0.0
                      ? static_cast<double>(kRequests) / point.wall_seconds
                      : 0.0;
      if (window == 512 && point.thread_peak > cores + 4) {
        std::fprintf(stderr,
                     "GATE: window=512 reached %d live threads (limit "
                     "cores+4 = %d)\n",
                     point.thread_peak, cores + 4);
        ok = false;
      }
      sweep.push_back(point);
    }

    TablePrinter table({"window", "wall_s", "qps", "threads"});
    table.AddComment(StrFormat(
        "Completion-dispatch sweep: %llu FetchNeighbors over loopback "
        "(best of %d; cores=%d)",
        static_cast<unsigned long long>(kRequests), env.trials, cores));
    for (const SweepPoint& p : sweep) {
      table.AddRow({TablePrinter::Cell(p.window),
                    TablePrinter::CellPrec(p.wall_seconds, 4),
                    TablePrinter::Cell(StrFormat("%.0f", p.qps)),
                    TablePrinter::Cell(p.thread_peak)});
    }
    table.Print(stdout);

    if (!ok) {
      exit_code = 1;
    } else {
      std::printf(
          "# GATE OK: remote samples identical to in-process, threads <= "
          "cores+4 at window=512\n");
    }
  }  // remote backend and executors destroyed before the server goes away

  StopServerChild(child);
  return exit_code;
}

}  // namespace

int main() { return Run(); }
