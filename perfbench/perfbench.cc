// wnw_perfbench: the end-to-end benchmark of the walk-not-wait library, in
// the paper's unit — wall time and query cost per accepted sample.
//
//   wnw_perfbench --workload we_local --seed 7 --seconds 20 --trace 0
//                 [--work-dir DIR]
//
// Every workload builds BA(200000, 5) from --seed, then runs closed-loop
// (one draw in flight, the next issued when it returns) for --seconds of
// wall time, in whole cycles of a fixed work list, so the deterministic
// counts of a seed never depend on how fast the host is:
//
//   we_local           we:mhrw?diameter=6, one session per round over the
//                      in-process InMemoryBackend (the paper's workload)
//   we_remote          we_local's spec, 3 rounds chosen by query cost,
//                      through RemoteBackend to an in-process WnwServer
//                      (1 reactor, 1 connection) serving a snapshot of the
//                      graph streamed in set-up
//   engine_sweep       RunWalkEngine walk:srw?steps=8, 1M walkers x 1
//                      sample, 2 threads, over the mmap'd snapshot with a
//                      2 MiB residency budget and prefetch=2
//   wepath_restricted  we-path:srw?diameter=6 under the §6.3.1 type-2 fixed
//                      8-subset with the bidirectional check, in-process
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs untraced, traced
// and untraced passes of the same work and prints the per-layer split
// (trace.h).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Any correctness, exact-count or thread-budget failure sets
// correct=false and exits 1. See NOTES.md for why each workload exists and
// for the baselines the traced run should reproduce.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "access/backend.h"
#include "access/remote_backend.h"
#include "access/snapshot_backend.h"
#include "core/estimate.h"
#include "core/registry.h"
#include "core/session.h"
#include "engine/walk_engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "mcmc/rejection.h"
#include "mcmc/transition.h"
#include "mcmc/walker.h"
#include "net/server.h"
#include "probes.h"
#include "random/rng.h"
#include "storage/ingest.h"
#include "storage/snapshot.h"
#include "trace.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using wnw::Graph;
using wnw::NodeId;

constexpr NodeId kNodes = 200000;
constexpr uint32_t kEdgesPerNode = 5;
constexpr int kSetupReps = 5;
constexpr double kMiB = 1024.0 * 1024.0;

constexpr std::string_view kWeSpec = "we:mhrw?diameter=6";
constexpr std::string_view kPathSpec = "we-path:srw?diameter=6";
constexpr uint32_t kPathSubset = 8;

constexpr std::string_view kEngineSpec =
    "walk:srw?steps=8&engine=block&walkers=1000000&residency_mb=2&prefetch=2";
constexpr std::string_view kEngineWarmSpec =
    "walk:srw?steps=8&engine=block&walkers=65536&residency_mb=2&prefetch=2";
constexpr uint64_t kEngineWalkers = 1000000;
constexpr uint64_t kEngineSamplesPerWalker = 1;
constexpr uint64_t kEngineStepsPerSample = 8;
constexpr int kEngineThreads = 2;

enum class Workload { kWeLocal, kWeRemote, kEngineSweep, kWePathRestricted };

struct WorkloadInfo {
  Workload id;
  const char* name;
  int rounds;           // sessions in one cycle (session workloads)
  int pool;             // sessions the cycle's are chosen from
  uint64_t draws;       // draws per session
  bool draw_times;      // one sample per Draw(): report its percentiles
};

// A session's query cost per sample varies widely with where its walks
// start, so the per-sample figures of a seed settle only over many
// sessions. The cycles are sized for that, not for time. we_remote cannot
// afford many sessions (a draw costs ~150 round trips), so it replays 3
// sessions chosen by cost from 24 (SessionWorkload::ChooseRounds). we-path
// hands out several samples per walk, so most of its Draw() calls only pop
// a buffer: it gets no percentiles.
constexpr WorkloadInfo kWorkloads[] = {
    {Workload::kWeLocal, "we_local", 48, 48, 200, true},
    {Workload::kWeRemote, "we_remote", 3, 24, 200, true},
    {Workload::kEngineSweep, "engine_sweep", 1, 1, 0, false},
    {Workload::kWePathRestricted, "wepath_restricted", 48, 48, 200, false},
};

// --- the result line ---------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  bool measured = true;  // false: the workload does not exercise the layer
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;

  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }
  void Set(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name), Metric{value, std::move(unit)});
  }
};

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

void PrintLine(const std::string& name, const std::string& value,
               const std::string& unit) {
  std::printf("# %-36s %18s %s\n", name.c_str(), value.c_str(), unit.c_str());
}

/// The "# name value unit" lines for people, then the JSON line. A metric
/// of a layer the workload does not exercise reads n/a here and 0 in the
/// JSON, which must carry every per-layer name on every workload.
void PrintReport(const Report& report) {
  for (const auto& [name, metric] : report.metrics) {
    PrintLine(name, metric.measured ? Number(metric.value) : "n/a",
              metric.unit);
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, metric] = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " +
            Number(metric.measured ? metric.value : 0.0) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- set-up: graph, snapshot, server ----------------------------------------

struct Fixture {
  std::unique_ptr<Graph> graph;
  std::optional<wnw::LoadedSnapshot> snapshot;  // engine_sweep
  std::shared_ptr<TracingBackend> server_tap;  // we_remote, --trace 1
  std::unique_ptr<wnw::net::WnwServer> server;  // we_remote
  std::shared_ptr<wnw::RemoteBackend> remote;   // we_remote; dies first

  double build_s = 0.0;
  double ingest_s = 0.0;
  uint64_t ingest_edges = 0;
  double open_s = 0.0;
  double total_s = 0.0;
};

wnw::Status SetUp(Workload workload, uint64_t seed, bool trace,
                  const std::string& work_dir, Fixture* f) {
  wnw::Timer total;
  wnw::Timer phase;
  wnw::Rng graph_rng(seed);
  WNW_ASSIGN_OR_RETURN(Graph graph, wnw::MakeBarabasiAlbert(
                                        kNodes, kEdgesPerNode, graph_rng));
  f->graph = std::make_unique<Graph>(std::move(graph));
  f->build_s = phase.ElapsedSeconds();

  if (workload == Workload::kWeRemote || workload == Workload::kEngineSweep) {
    const std::string path = work_dir + "/graph-" +
                             std::to_string(::getpid()) + ".snap";
    phase.Reset();
    wnw::GraphEdgeSource source(f->graph.get());
    wnw::storage::IngestOptions ingest;
    ingest.temp_dir = work_dir;
    WNW_ASSIGN_OR_RETURN(wnw::storage::IngestStats stats,
                         wnw::storage::StreamGraphSnapshot(source, path,
                                                           ingest));
    f->ingest_s = phase.ElapsedSeconds();
    f->ingest_edges = stats.input_edges;

    // The mapping outlives the name: unlinking right after the open leaves
    // nothing behind in the work directory, whatever happens next.
    phase.Reset();
    std::shared_ptr<wnw::AccessBackend> origin;
    wnw::Status opened = wnw::Status::OK();
    if (workload == Workload::kWeRemote) {
      auto backend = wnw::SnapshotBackend::Open(path);
      if (backend.ok()) origin = *backend;
      opened = backend.status();
    } else {
      auto loaded = wnw::LoadGraphSnapshot(path);
      if (loaded.ok()) f->snapshot.emplace(std::move(loaded).value());
      opened = loaded.status();
    }
    f->open_s = phase.ElapsedSeconds();
    ::unlink(path.c_str());
    WNW_RETURN_IF_ERROR(opened);

    if (workload == Workload::kWeRemote) {
      if (trace) {
        f->server_tap = std::make_shared<TracingBackend>(
            origin, TracingBackend::Side::kServer, nullptr);
        origin = f->server_tap;
      }
      wnw::net::ServerOptions server;
      server.threads = 1;
      WNW_ASSIGN_OR_RETURN(f->server, wnw::net::WnwServer::Start(origin, server));
      wnw::RemoteBackendOptions client;
      client.connections = 1;
      WNW_ASSIGN_OR_RETURN(
          f->remote,
          wnw::RemoteBackend::Connect(
              "127.0.0.1:" + std::to_string(f->server->port()), client));
    }
  }
  f->total_s = total.ElapsedSeconds();
  return wnw::Status::OK();
}

// --- one round: a fresh session drawing a fixed number of samples ------------

/// What a round must reproduce exactly whenever it runs again.
struct RoundCounts {
  std::vector<NodeId> samples;
  uint64_t query_cost = 0;
  uint64_t logical_queries = 0;
  uint64_t backend_fetches = 0;
  uint64_t candidates = 0;
  uint64_t backward_walks = 0;
  uint64_t rpcs = 0;  // remote only
  double seconds = 0.0;  // wall time, not compared

  bool SameWork(const RoundCounts& o) const {
    return samples == o.samples && query_cost == o.query_cost &&
           logical_queries == o.logical_queries &&
           backend_fetches == o.backend_fetches &&
           candidates == o.candidates && backward_walks == o.backward_walks;
  }
};

/// Mixing the seed before the round keeps neighbouring seeds apart: with
/// seed ^ (c + round), seed s + 1 would replay most of seed s's rounds.
uint64_t RoundSeed(uint64_t seed, int round) {
  return wnw::Mix64(wnw::Mix64(seed) ^
                    (0x70e7b3c5a1d2e4f6ull + static_cast<uint64_t>(round)));
}

struct RoundEnv {
  const Graph* graph = nullptr;
  std::string_view spec;
  uint64_t draws = 0;
  wnw::AccessOptions access;  // origin scenario for in-process rounds
  std::shared_ptr<wnw::RemoteBackend> remote;  // set: draw through it
  Tracer* tracer = nullptr;  // set: trace the round
};

/// The origin a round draws from. Restricted origins memoize their fixed
/// subsets, so each round gets a fresh one and every cycle repeats exactly
/// the same work.
std::shared_ptr<wnw::AccessBackend> RoundBackend(const RoundEnv& env) {
  std::shared_ptr<wnw::AccessBackend> backend;
  if (env.remote != nullptr) {
    backend = env.remote;
  } else {
    backend = std::make_shared<wnw::InMemoryBackend>(env.graph, env.access);
  }
  if (env.tracer != nullptr) {
    backend = std::make_shared<TracingBackend>(
        backend, TracingBackend::Side::kClient, env.tracer);
  }
  return backend;
}

/// Draws through SamplingSession (every untraced round, and the traced
/// rounds of wepath_restricted, whose only core span is the draw).
RoundCounts RunSessionRound(const RoundEnv& env, uint64_t round_seed,
                            std::vector<double>* draw_ms, Report* report) {
  RoundCounts counts;
  wnw::SessionOptions options;
  options.backend = RoundBackend(env);
  options.seed = round_seed;
  const uint64_t rpcs_before = env.remote ? env.remote->rpcs() : 0;
  auto session = wnw::SamplingSession::Open(env.graph, env.spec, options);
  if (!session.ok()) {
    report->Fail("session open: " + session.status().ToString());
    return counts;
  }
  for (uint64_t i = 0; i < env.draws; ++i) {
    ++report->attempted;
    const int64_t start = NowNs();
    std::optional<ScopedSpan> span;
    if (env.tracer != nullptr) span.emplace(env.tracer, SpanKind::kDraw);
    auto drawn = (*session)->Draw();
    span.reset();
    if (draw_ms != nullptr) draw_ms->push_back((NowNs() - start) / 1e6);
    if (!drawn.ok()) {
      ++report->failed;
      std::fprintf(stderr, "draw failed: %s\n",
                   drawn.status().ToString().c_str());
      break;
    }
    counts.samples.push_back(*drawn);
  }
  const wnw::SessionStats stats = (*session)->Stats();
  counts.query_cost = stats.query_cost;
  counts.logical_queries = stats.total_queries;
  counts.backend_fetches = stats.backend_fetches;
  counts.candidates = stats.candidates_tried;
  counts.backward_walks = stats.backward_walks;
  if (env.remote) counts.rpcs = env.remote->rpcs() - rpcs_before;
  return counts;
}

/// Drives WALK-ESTIMATE's draw loop directly through the public Walk /
/// ProbabilityEstimator / RejectionSampler, seeded exactly as
/// SamplingSession::Open seeds WalkEstimateSampler, with a span around
/// each stage. Must reproduce the session's samples byte for byte.
RoundCounts RunTracedWeRound(const RoundEnv& env, uint64_t round_seed,
                             Report* report) {
  RoundCounts counts;
  auto config = wnw::SamplerConfig::Parse(env.spec);
  auto options = config.ok() ? wnw::ReadWalkEstimateOptions(*config)
                             : wnw::Result<wnw::WalkEstimateOptions>(
                                   config.status());
  if (!options.ok()) {
    report->Fail("we options: " + options.status().ToString());
    return counts;
  }
  const std::unique_ptr<wnw::TransitionDesign> design =
      wnw::MakeTransitionDesign(config->walk);
  const uint64_t rpcs_before = env.remote ? env.remote->rpcs() : 0;
  wnw::AccessInterface access(RoundBackend(env), nullptr, nullptr);

  wnw::Rng seeder(wnw::Mix64(round_seed));
  const uint64_t sampler_seed = seeder.Next();
  const NodeId start =
      static_cast<NodeId>(seeder.NextBounded(env.graph->num_nodes()));
  wnw::Rng rng(sampler_seed);
  const int t = options->EffectiveWalkLength();
  wnw::ProbabilityEstimator estimator(design.get(), start, t,
                                      options->estimate);
  wnw::RejectionSampler rejection(options->rejection);
  std::vector<NodeId> path;

  Tracer* tracer = env.tracer;
  for (uint64_t i = 0; i < env.draws; ++i) {
    ++report->attempted;
    ScopedSpan draw(tracer, SpanKind::kDraw);
    if (i == 0) {
      ScopedSpan span(tracer, SpanKind::kPrepare);
      estimator.Prepare(access);
    }
    bool accepted = false;
    NodeId v = 0;
    for (int c = 0; c < options->max_candidates_per_draw && !accepted; ++c) {
      {
        ScopedSpan span(tracer, SpanKind::kForward);
        v = wnw::Walk(access, *design, start, t, rng, &path);
        estimator.RecordForwardWalk(path);
      }
      ++counts.candidates;
      wnw::PtEstimate est;
      {
        ScopedSpan span(tracer, SpanKind::kEstimate);
        est = estimator.Estimate(access, v, rng);
      }
      ScopedSpan span(tracer, SpanKind::kAccept);
      const double target = design->StationaryWeight(access, v);
      accepted = est.mean <= 0.0 || target <= 0.0 ||
                 rejection.Accept(est.mean / target, rng);
    }
    if (!accepted) {
      ++report->failed;
      break;
    }
    counts.samples.push_back(v);
  }
  counts.query_cost = access.query_cost();
  counts.logical_queries = access.total_queries();
  counts.backend_fetches = access.meter().backend_fetches;
  counts.backward_walks = estimator.total_backward_walks();
  if (env.remote) counts.rpcs = env.remote->rpcs() - rpcs_before;
  return counts;
}

// --- shared checks -----------------------------------------------------------

void CheckSamplesValid(const std::vector<NodeId>& samples, uint64_t num_nodes,
                       const char* what, Report* report) {
  for (NodeId s : samples) {
    if (s >= num_nodes) {
      report->Fail(std::string(what) + ": sample " + std::to_string(s) +
                   " is not a node id");
      return;
    }
  }
}

/// The exact-count guard: a round that runs again must repeat itself.
void CheckRepeat(const RoundCounts& first, const RoundCounts& again,
                 const std::string& what, Report* report) {
  if (!again.SameWork(first)) {
    report->Fail(what + ": a deterministic count or the sample sequence "
                 "changed between two runs of the same round (query_cost " +
                 std::to_string(first.query_cost) + " vs " +
                 std::to_string(again.query_cost) + ", candidates " +
                 std::to_string(first.candidates) + " vs " +
                 std::to_string(again.candidates) + ", backward walks " +
                 std::to_string(first.backward_walks) + " vs " +
                 std::to_string(again.backward_walks) + ")");
  }
  if (first.rpcs != again.rpcs) {
    report->Fail(what + ": rpc count changed between runs (" +
                 std::to_string(first.rpcs) + " vs " +
                 std::to_string(again.rpcs) + ")");
  }
}

/// The budget is on the process's live threads, the watcher left out:
/// at most one per CPU. engine_sweep also leaves out the engine's own RSS
/// sampler, which sleeps 5 ms between two /proc reads; what remains there
/// is the caller parked in join, two workers and the prefetch thread.
void CheckThreads(const ThreadWatch& watch, Workload workload,
                  Report* report) {
  const int threads =
      watch.peak_live() - (workload == Workload::kEngineSweep ? 1 : 0);
  const int cpus = AvailableCpus();
  PrintLine("threads.peak_live", std::to_string(threads),
            "count (budget " + std::to_string(cpus) + ")");
  if (threads > cpus) {
    report->Fail("thread budget: " + std::to_string(threads) +
                 " threads live at once on " + std::to_string(cpus) +
                 " CPUs");
  }
}

void CheckConnections(const Fixture& f, Report* report) {
  if (f.server != nullptr && f.server->counters().connections_accepted > 1) {
    report->Fail("connection budget: the server accepted " +
                 std::to_string(f.server->counters().connections_accepted) +
                 " connections");
  }
}

struct SetupTimes {
  double setup_s = 0.0;
  double build_s = 0.0;
  double ingest_edges_per_s = 0.0;
  double open_s = 0.0;
};

// --- session workloads: we_local, we_remote, wepath_restricted ---------------

struct CycleResult {
  std::vector<RoundCounts> rounds;
  uint64_t samples = 0;
  double seconds = 0.0;
};

class SessionWorkload {
 public:
  SessionWorkload(const WorkloadInfo& info, uint64_t seed, Fixture* f,
                  Report* report)
      : info_(info), seed_(seed), f_(f), report_(report) {
    env_.graph = f->graph.get();
    env_.draws = info.draws;
    env_.remote = f->remote;
    if (info.id == Workload::kWePathRestricted) {
      env_.spec = kPathSpec;
      env_.access.restriction = wnw::NeighborRestriction::kFixedSubset;
      env_.access.max_neighbors = kPathSubset;
      env_.access.bidirectional_check = true;
    } else {
      env_.spec = kWeSpec;
    }
    rounds_ = ChooseRounds();
  }

  /// One pass over the work list. Traced passes of the WE workloads drive
  /// the draw loop themselves; the rest draw through SamplingSession.
  CycleResult Cycle(Tracer* tracer, std::vector<double>* draw_ms) {
    CycleResult cycle;
    RoundEnv env = env_;
    env.tracer = tracer;
    const bool own_loop =
        tracer != nullptr && info_.id != Workload::kWePathRestricted;
    wnw::Timer timer;
    for (int r : rounds_) {
      const uint64_t round_seed = RoundSeed(seed_, r);
      wnw::Timer round_timer;
      RoundCounts counts =
          own_loop ? RunTracedWeRound(env, round_seed, report_)
                   : RunSessionRound(env, round_seed, draw_ms, report_);
      counts.seconds = round_timer.ElapsedSeconds();
      cycle.samples += counts.samples.size();
      cycle.rounds.push_back(std::move(counts));
    }
    cycle.seconds = timer.ElapsedSeconds();
    for (const RoundCounts& round : cycle.rounds) {
      CheckSamplesValid(round.samples, f_->graph->num_nodes(), info_.name,
                        report_);
    }
    return cycle;
  }

  void CheckRepeatCycle(const CycleResult& first, const CycleResult& again,
                        const char* what) {
    for (size_t r = 0; r < first.rounds.size() && r < again.rounds.size();
         ++r) {
      CheckRepeat(first.rounds[r], again.rounds[r],
                  std::string(info_.name) + " " + what + " round " +
                      std::to_string(r),
                  report_);
    }
  }

  /// we_remote only: the same rounds over an in-process origin must give
  /// the same samples at the same query cost.
  void CheckRemoteMatchesLocal(const CycleResult& remote) {
    if (env_.remote == nullptr) return;
    RoundEnv local = env_;
    local.remote = nullptr;
    Report scratch;
    for (size_t i = 0; i < rounds_.size(); ++i) {
      RoundCounts counts = RunSessionRound(local, RoundSeed(seed_, rounds_[i]),
                                           nullptr, &scratch);
      counts.rpcs = remote.rounds[i].rpcs;
      CheckRepeat(remote.rounds[i], counts,
                  std::string("we_remote vs we_local round ") +
                      std::to_string(rounds_[i]),
                  report_);
    }
  }


 private:
  /// The rounds a cycle runs: all of the pool, or, when the pool is larger,
  /// a sample stratified by query cost over the in-process origin. The pool
  /// is sorted by cost and cut into `rounds` equal strata; each stratum's
  /// median session is replayed. Three sessions drawn at random would make
  /// the seed, not the code, set the rate: their cost per sample spreads
  /// by ~8 % (quartiles over seeds), the stratified three by ~1.5 %.
  std::vector<int> ChooseRounds() {
    std::vector<int> chosen;
    if (info_.pool == info_.rounds) {
      for (int r = 0; r < info_.rounds; ++r) chosen.push_back(r);
      return chosen;
    }
    RoundEnv local = env_;
    local.remote = nullptr;
    Report scratch;
    std::vector<std::pair<uint64_t, int>> costs;
    for (int r = 0; r < info_.pool; ++r) {
      costs.emplace_back(
          RunSessionRound(local, RoundSeed(seed_, r), nullptr, &scratch)
              .query_cost,
          r);
    }
    if (!scratch.correct || scratch.failed > 0) {
      report_->Fail(std::string(info_.name) + ": choosing rounds failed");
    }
    std::sort(costs.begin(), costs.end());
    for (int s = 0; s < info_.rounds; ++s) {
      const int median = (2 * s + 1) * info_.pool / (2 * info_.rounds);
      chosen.push_back(costs[median].second);
    }
    return chosen;
  }

  WorkloadInfo info_;
  uint64_t seed_;
  Fixture* f_;
  Report* report_;
  RoundEnv env_;
  std::vector<int> rounds_;
};

double QueryCostPerSample(const CycleResult& cycle) {
  uint64_t cost = 0;
  for (const RoundCounts& r : cycle.rounds) cost += r.query_cost;
  return cycle.samples == 0 ? 0.0 : double(cost) / double(cycle.samples);
}

void RunSessionEndToEnd(const WorkloadInfo& info, uint64_t seed,
                        double seconds, Fixture* f, const SetupTimes& setup,
                        Report* report) {
  SessionWorkload workload(info, seed, f, report);
  std::vector<double> draw_ms;
  ResetPeakRss();
  wnw::Timer timer;
  const CycleResult first = workload.Cycle(nullptr, &draw_ms);
  const double peak_rss = static_cast<double>(PeakRssBytes());  // one cycle
  uint64_t samples = first.samples;
  // Every cycle repeats the same rounds, so a round's times compare across
  // cycles. The rate is the cycle's samples over the sum of each round's
  // median time: a burst from another tenant of the machine slows the
  // rounds it overlaps in one cycle, and the median drops those. A cycle
  // starts only if it should end within `seconds`, so how many run depends
  // on speed alone, not on how close the last one came to the line:
  // we_remote's round trips slow down as a process makes more of them.
  std::vector<std::vector<double>> round_s(first.rounds.size());
  std::vector<double> rates;
  auto add = [&](const CycleResult& cycle) {
    for (size_t i = 0; i < cycle.rounds.size(); ++i) {
      round_s[i].push_back(cycle.rounds[i].seconds);
    }
    rates.push_back(double(cycle.samples) / cycle.seconds);
  };
  add(first);
  double last_s = first.seconds;
  while (timer.ElapsedSeconds() + last_s <= seconds) {
    const CycleResult again = workload.Cycle(nullptr, &draw_ms);
    workload.CheckRepeatCycle(first, again, "repeat");
    samples += again.samples;
    add(again);
    last_s = again.seconds;
  }
  const double elapsed = timer.ElapsedSeconds();
  workload.CheckRemoteMatchesLocal(first);
  double median_cycle_s = 0.0;
  for (const std::vector<double>& times : round_s) {
    median_cycle_s += Median(times);
  }

  std::printf("# %s: %" PRIu64 " samples in %zu cycles, %.3f s; cycle rates",
              info.name, samples, rates.size(), elapsed);
  for (double rate : rates) std::printf(" %.1f", rate);
  std::printf("\n");
  // The percentiles are printed but left out of the JSON, whose end-to-end
  // names must be the same on every workload (NOTES.md).
  if (info.draw_times) {
    const std::string unit =
        "ms (" + std::to_string(draw_ms.size()) + " draws)";
    PrintLine("sample_ms_p50", Number(Percentile(draw_ms, 0.50)), unit);
    PrintLine("sample_ms_p99", Number(Percentile(draw_ms, 0.99)), unit);
  }
  report->Set("samples_per_s", double(first.samples) / median_cycle_s, "1/s");
  report->Set("query_cost_per_sample", QueryCostPerSample(first), "count");
  report->Set("peak_rss_mb", peak_rss / kMiB, "MB");
  report->Set("setup_s", setup.setup_s, "s");
}

// --- per-layer split from the spans ------------------------------------------

struct LayerSums {
  double draw_ms = 0.0;
  double forward_self_ms = 0.0;
  double estimate_self_ms = 0.0;
  double accept_self_ms = 0.0;
  double backend_ms = 0.0;
  uint64_t batches = 0;
  std::vector<double> fetch_us;  // single fetches
  std::vector<double> rpc_us;    // every backend call (one RPC each remote)
};

LayerSums SumSpans(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size() + 1, 0);
  for (const Span& s : spans) child_ns[s.parent] += s.end_ns - s.start_ns;
  LayerSums sums;
  for (const Span& s : spans) {
    const double ms = double(s.end_ns - s.start_ns) / 1e6;
    const double self_ms = ms - double(child_ns[s.id]) / 1e6;
    switch (s.kind) {
      case SpanKind::kDraw:
        sums.draw_ms += ms;
        break;
      case SpanKind::kForward:
        sums.forward_self_ms += self_ms;
        break;
      case SpanKind::kEstimate:
        sums.estimate_self_ms += self_ms;
        break;
      case SpanKind::kAccept:
        sums.accept_self_ms += self_ms;
        break;
      case SpanKind::kBackendFetch:
        sums.backend_ms += ms;
        sums.fetch_us.push_back(s.micros());
        sums.rpc_us.push_back(s.micros());
        break;
      case SpanKind::kBackendBatch:
        sums.backend_ms += ms;
        sums.rpc_us.push_back(s.micros());
        ++sums.batches;
        break;
      default:
        break;
    }
  }
  return sums;
}

using LayerMetrics = std::map<std::string, Metric>;

/// Every per-layer metric, unmeasured until a workload that exercises its
/// layer puts a value in, so every traced run reports the same names.
LayerMetrics EmptyLayerMetrics() {
  LayerMetrics m;
  auto add = [&m](std::initializer_list<const char*> names, const char* unit) {
    for (const char* name : names) m[name] = Metric{0.0, unit, false};
  };
  add({"core.forward_ms_per_sample", "core.estimate_ms_per_sample",
       "core.accept_ms_per_sample", "core.self_ms_per_sample",
       "access.backend_ms_per_sample"},
      "ms");
  add({"access.fetch_us_p50", "access.fetch_us_p99", "net.rpc_us_p50",
       "net.rpc_us_p99", "net.server_us_p50", "net.server_us_p99",
       "net.transit_us_p50"},
      "us");
  add({"core.candidates_per_sample", "core.backward_walks_per_sample",
       "access.logical_queries_per_sample",
       "access.backend_fetches_per_sample", "access.batches_per_sample",
       "net.rpcs_per_sample", "net.retries", "engine.block_switches",
       "storage.residency_prefetches", "storage.residency_releases"},
      "count");
  add({"core.acceptance_ratio", "access.session_hit_ratio",
       "access.backend_share_of_draw"},
      "ratio");
  add({"net.wire_bytes_per_sample", "engine.bytes_scanned_per_step",
       "engine.bytes_per_walker"},
      "B");
  add({"engine.stepping_steps_per_s", "storage.ingest_edges_per_s"}, "1/s");
  add({"engine.setup_s", "storage.snapshot_open_s", "graph.build_s"}, "s");
  add({"storage.residency_peak_mb"}, "MB");
  add({"trace.overhead_pct"}, "%");
  return m;
}

void Put(LayerMetrics* m, const char* name, double value) {
  Metric& metric = m->at(name);
  metric.value = value;
  metric.measured = true;
}

void RunSessionTraced(const WorkloadInfo& info, uint64_t seed, Fixture* f,
                      const std::string& trace_path, LayerMetrics* m,
                      Report* report) {
  SessionWorkload workload(info, seed, f, report);
  // Three passes: untraced (the reference), traced, untraced. The overhead
  // compares the traced pass with the mean rate of the two around it, which
  // cancels a steady drift (we_remote's round trips slow down as a process
  // makes more of them).
  const CycleResult reference = workload.Cycle(nullptr, nullptr);
  workload.CheckRemoteMatchesLocal(reference);

  Tracer tracer;
  const uint64_t rpcs_before = f->remote ? f->remote->rpcs() : 0;
  const uint64_t bytes_before = f->remote ? f->remote->wire_bytes() : 0;
  if (f->server_tap) f->server_tap->set_enabled(true);
  const CycleResult traced = workload.Cycle(&tracer, nullptr);
  if (f->server_tap) f->server_tap->set_enabled(false);
  workload.CheckRepeatCycle(reference, traced, "traced");
  const uint64_t rpcs_traced = f->remote ? f->remote->rpcs() - rpcs_before : 0;
  const uint64_t bytes_traced =
      f->remote ? f->remote->wire_bytes() - bytes_before : 0;
  const CycleResult untraced = workload.Cycle(nullptr, nullptr);
  workload.CheckRepeatCycle(reference, untraced, "untraced");

  const double n = double(traced.samples);
  uint64_t candidates = 0, backward = 0, logical = 0, fetches = 0;
  for (const RoundCounts& r : traced.rounds) {
    candidates += r.candidates;
    backward += r.backward_walks;
    logical += r.logical_queries;
    fetches += r.backend_fetches;
  }
  const LayerSums sums = SumSpans(tracer.spans());
  const bool own_loop = info.id != Workload::kWePathRestricted;
  if (own_loop) {
    Put(m, "core.forward_ms_per_sample", sums.forward_self_ms / n);
    Put(m, "core.estimate_ms_per_sample", sums.estimate_self_ms / n);
    Put(m, "core.accept_ms_per_sample", sums.accept_self_ms / n);
  }
  Put(m, "core.self_ms_per_sample", (sums.draw_ms - sums.backend_ms) / n);
  Put(m, "core.candidates_per_sample", double(candidates) / n);
  Put(m, "core.acceptance_ratio", n / double(candidates));
  Put(m, "core.backward_walks_per_sample", double(backward) / n);
  Put(m, "access.logical_queries_per_sample", double(logical) / n);
  Put(m, "access.backend_fetches_per_sample", double(fetches) / n);
  Put(m, "access.session_hit_ratio",
      logical == 0 ? 0.0 : 1.0 - double(fetches) / double(logical));
  Put(m, "access.backend_ms_per_sample", sums.backend_ms / n);
  Put(m, "access.backend_share_of_draw",
      sums.draw_ms > 0 ? sums.backend_ms / sums.draw_ms : 0.0);
  Put(m, "access.fetch_us_p50", Percentile(sums.fetch_us, 0.50));
  Put(m, "access.fetch_us_p99", Percentile(sums.fetch_us, 0.99));
  Put(m, "access.batches_per_sample", double(sums.batches) / n);

  if (f->remote != nullptr) {
    const std::vector<Span> server = f->server_tap->TakeServerSpans();
    std::vector<double> server_us, transit_us;
    for (const Span& s : server) server_us.push_back(s.micros());
    if (server_us.size() != sums.rpc_us.size()) {
      report->Fail("net: " + std::to_string(sums.rpc_us.size()) +
                   " client RPC spans but " +
                   std::to_string(server_us.size()) + " server spans");
    } else {
      // One RPC in flight at a time: the i-th client span and the i-th
      // server span are the same request.
      for (size_t i = 0; i < server_us.size(); ++i) {
        transit_us.push_back(sums.rpc_us[i] - server_us[i]);
      }
    }
    Put(m, "net.rpc_us_p50", Percentile(sums.rpc_us, 0.50));
    Put(m, "net.rpc_us_p99", Percentile(sums.rpc_us, 0.99));
    Put(m, "net.server_us_p50", Percentile(server_us, 0.50));
    Put(m, "net.server_us_p99", Percentile(server_us, 0.99));
    Put(m, "net.transit_us_p50", Percentile(transit_us, 0.50));
    Put(m, "net.rpcs_per_sample", double(rpcs_traced) / n);
    Put(m, "net.wire_bytes_per_sample", double(bytes_traced) / n);
    Put(m, "net.retries", double(f->remote->retries()));
  }
  const double untraced_rate =
      (double(reference.samples) / reference.seconds +
       double(untraced.samples) / untraced.seconds) / 2;
  const double traced_rate = double(traced.samples) / traced.seconds;
  Put(m, "trace.overhead_pct", (untraced_rate / traced_rate - 1) * 100);

  if (std::FILE* out = std::fopen(trace_path.c_str(), "w")) {
    if (!tracer.WriteTsv(out)) report->Fail("cannot write " + trace_path);
    std::fclose(out);
  } else {
    report->Fail("cannot open " + trace_path);
  }
}

// --- engine_sweep --------------------------------------------------------------

struct Sweep {
  std::vector<NodeId> samples;
  uint64_t steps = 0;
  uint64_t query_cost = 0;
  double seconds = 0.0;
  wnw::SessionStats stats;
};

std::optional<Sweep> RunSweep(const Graph& graph, std::string_view spec,
                              uint64_t seed, Report* report, bool count) {
  wnw::EngineOptions options;
  options.samples_per_walker = kEngineSamplesPerWalker;
  options.threads = kEngineThreads;
  options.session.seed = seed;
  const uint64_t requested = kEngineWalkers * kEngineSamplesPerWalker;
  if (count) report->attempted += requested;
  wnw::Timer timer;
  auto run = wnw::RunWalkEngine(&graph, spec, options);
  const double seconds = timer.ElapsedSeconds();
  if (!run.ok()) {
    if (count) report->failed += requested;
    std::fprintf(stderr, "engine run failed: %s\n",
                 run.status().ToString().c_str());
    return std::nullopt;
  }
  Sweep sweep;
  sweep.seconds = seconds;
  sweep.samples = std::move(run->samples);
  sweep.stats = run->stats;
  sweep.steps = run->stats.engine_steps;
  for (const wnw::EngineWalkerStats& w : run->walker_stats) {
    sweep.query_cost += w.query_cost;
  }
  return sweep;
}

void CheckSweep(const Sweep& sweep, const Sweep* first, uint64_t num_nodes,
                Report* report) {
  const uint64_t expected =
      kEngineWalkers * kEngineSamplesPerWalker * kEngineStepsPerSample;
  if (sweep.steps != expected) {
    report->Fail("engine_sweep: executed " + std::to_string(sweep.steps) +
                 " steps, expected walkers x samples x 8 = " +
                 std::to_string(expected));
  }
  if (sweep.samples.size() != kEngineWalkers * kEngineSamplesPerWalker) {
    report->Fail("engine_sweep: emitted " +
                 std::to_string(sweep.samples.size()) + " samples");
  }
  CheckSamplesValid(sweep.samples, num_nodes, "engine_sweep", report);
  if (first != nullptr &&
      (sweep.samples != first->samples || sweep.steps != first->steps ||
       sweep.query_cost != first->query_cost)) {
    report->Fail("engine_sweep: samples, step total or query cost changed "
                 "between two sweeps of the same seed");
  }
}

void RunEngineEndToEnd(uint64_t seed, double seconds, Fixture* f,
                       const SetupTimes& setup, Report* report) {
  const Graph& graph = f->snapshot->graph;
  RunSweep(graph, kEngineWarmSpec, seed, report, false);

  // The peak RSS is the first sweep's, a fixed amount of work: the heap
  // keeps part of what each sweep frees, so later sweeps start higher.
  ResetPeakRss();
  uint64_t peak_rss = 0;
  std::vector<Sweep> sweeps;
  wnw::Timer timer;
  do {
    std::optional<Sweep> sweep = RunSweep(graph, kEngineSpec, seed, report,
                                          true);
    if (!sweep) break;
    if (sweeps.empty()) peak_rss = PeakRssBytes();
    CheckSweep(*sweep, sweeps.empty() ? nullptr : &sweeps.front(),
               graph.num_nodes(), report);
    // Only the first sweep's samples are kept for the comparison.
    if (!sweeps.empty()) sweep->samples.clear();
    sweeps.push_back(std::move(*sweep));
  } while (timer.ElapsedSeconds() + sweeps.back().seconds <= seconds);
  const double elapsed = timer.ElapsedSeconds();

  if (sweeps.empty()) return;
  // Samples come out in bulk, so there is no per-draw latency here. Every
  // sweep repeats the same work; the rate is the median sweep's, which one
  // sweep that shared the machine does not move.
  const double per_sweep = double(kEngineWalkers * kEngineSamplesPerWalker);
  std::vector<double> rates;
  for (const Sweep& s : sweeps) rates.push_back(per_sweep / s.seconds);
  std::printf("# engine_sweep: %zu sweeps of %.0f samples in %.3f s\n",
              sweeps.size(), per_sweep, elapsed);
  report->Set("samples_per_s", Median(rates), "1/s");
  report->Set("query_cost_per_sample",
              double(sweeps.front().query_cost) / per_sweep, "count");
  report->Set("peak_rss_mb", double(peak_rss) / kMiB, "MB");
  report->Set("setup_s", setup.setup_s, "s");
}

void RunEngineTraced(uint64_t seed, Fixture* f, const std::string& trace_path,
                     LayerMetrics* m, Report* report) {
  const Graph& graph = f->snapshot->graph;
  RunSweep(graph, kEngineWarmSpec, seed, report, false);

  Tracer tracer;
  const uint64_t rss_before = CurrentRssBytes();
  ResetPeakRss();
  tracer.Begin(SpanKind::kDraw);
  std::optional<Sweep> traced =
      RunSweep(graph, kEngineSpec, seed, report, true);
  tracer.End();
  const uint64_t rss_peak = PeakRssBytes();
  if (!traced) return;
  CheckSweep(*traced, nullptr, graph.num_nodes(), report);
  std::optional<Sweep> untraced =
      RunSweep(graph, kEngineSpec, seed, report, true);
  if (!untraced) return;
  CheckSweep(*untraced, &*traced, graph.num_nodes(), report);

  const wnw::SessionStats& s = traced->stats;
  const double call_s = double(tracer.spans().front().end_ns -
                               tracer.spans().front().start_ns) / 1e9;
  const double stepping_s = s.engine_steps_per_sec > 0
                                ? double(s.engine_steps) / s.engine_steps_per_sec
                                : 0.0;
  Put(m, "engine.stepping_steps_per_s", s.engine_steps_per_sec);
  Put(m, "engine.setup_s", call_s - stepping_s);
  Put(m, "engine.block_switches", double(s.engine_block_switches));
  Put(m, "engine.bytes_scanned_per_step",
      double(s.engine_bytes_scanned) / double(s.engine_steps));
  Put(m, "engine.bytes_per_walker",
      double(rss_peak > rss_before ? rss_peak - rss_before : 0) /
          double(kEngineWalkers));
  Put(m, "storage.residency_prefetches",
      double(s.engine_residency_prefetches));
  Put(m, "storage.residency_releases", double(s.engine_residency_releases));
  Put(m, "storage.residency_peak_mb",
      double(s.engine_residency_peak_bytes) / kMiB);
  Put(m, "trace.overhead_pct",
      (traced->seconds / untraced->seconds - 1) * 100);

  if (std::FILE* out = std::fopen(trace_path.c_str(), "w")) {
    if (!tracer.WriteTsv(out)) report->Fail("cannot write " + trace_path);
    std::fclose(out);
  } else {
    report->Fail("cannot open " + trace_path);
  }
}

// --- main --------------------------------------------------------------------

struct Args {
  const WorkloadInfo* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadInfo& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wnw_perfbench --workload "
                 "we_local|we_remote|engine_sweep|wepath_restricted "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const WorkloadInfo& info = *args.workload;
  Report report;
  ThreadWatch threads;

  // Set up several times; the median is the set-up time, the last one runs.
  std::vector<double> total, build, ingest_rate, open;
  auto f = std::make_unique<Fixture>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    f = std::make_unique<Fixture>();
    const wnw::Status status =
        SetUp(info.id, args.seed, args.trace, args.work_dir, f.get());
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    total.push_back(f->total_s);
    build.push_back(f->build_s);
    open.push_back(f->open_s);
    if (f->ingest_s > 0) {
      ingest_rate.push_back(double(f->ingest_edges) / f->ingest_s);
    }
  }
  SetupTimes setup{Median(total), Median(build), Median(ingest_rate),
                   Median(open)};
  std::printf("# %s seed=%" PRIu64 " graph: %s\n", info.name, args.seed,
              f->graph->DebugString().c_str());

  const std::string trace_path = args.work_dir + "/trace-" + info.name + "-" +
                                 std::to_string(args.seed) + ".tsv";
  LayerMetrics layers = EmptyLayerMetrics();
  if (info.id == Workload::kEngineSweep) {
    f->graph.reset();  // the engine walks the snapshot's mapping
    if (args.trace) {
      RunEngineTraced(args.seed, f.get(), trace_path, &layers, &report);
    } else {
      RunEngineEndToEnd(args.seed, args.seconds, f.get(), setup, &report);
    }
  } else if (args.trace) {
    RunSessionTraced(info, args.seed, f.get(), trace_path, &layers, &report);
  } else {
    RunSessionEndToEnd(info, args.seed, args.seconds, f.get(), setup,
                       &report);
  }
  CheckConnections(*f, &report);
  f.reset();  // stops the server and its reactor before the thread check

  CheckThreads(threads, info.id, &report);
  PrintLine("error_rate",
            Number(report.attempted == 0
                       ? 0.0
                       : double(report.failed) / double(report.attempted)),
            "ratio");
  if (args.trace) {
    Put(&layers, "graph.build_s", setup.build_s);
    if (info.id == Workload::kWeRemote || info.id == Workload::kEngineSweep) {
      Put(&layers, "storage.ingest_edges_per_s", setup.ingest_edges_per_s);
      Put(&layers, "storage.snapshot_open_s", setup.open_s);
    }
    for (const auto& [name, metric] : layers) {
      report.metrics.emplace_back(name, metric);
    }
  }
  if (report.attempted == 0) report.Fail("no draw was attempted");
  PrintReport(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
