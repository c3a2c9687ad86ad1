// Block-engine ablation + acceptance gate: the two promises the engine
// makes, checked together because each is worthless without the other.
//
//   identity — for EVERY registered sampler, RunWalkEngine must emit
//     byte-identical per-walker samples to RunWalkerPool under the same
//     seed, at identical per-walker logical query cost, for every block
//     size and scheduler order in the sweep. A fast engine that drifts
//     from the pool is a different estimator, not an optimization.
//
//   throughput — a walker-count sweep (1k -> 1M logical walkers) over a
//     simple random walk. The gate: steps/sec at the top of the sweep must
//     beat the thread-pool baseline at ITS maximum (64 OS-thread walkers).
//     Multiplexing a million walkers over a handful of threads has to be
//     at least as fast as the pool's best, or the subsystem lost its
//     reason to exist.
//
// Exits nonzero on any violation. Env: WNW_SEED, WNW_SCALE (scales the
// throughput graph), WNW_WALKERS_MAX (top of the sweep, default 1000000).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/walk_engine.h"
#include "experiments/harness.h"
#include "graph/generators.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace wnw;

struct IdentityCase {
  const char* sampler;  // registry name, for coverage accounting
  const char* spec;
};

// One spec per registered sampler family (engine_test enforces that this
// style of table covers the whole registry; here the set is spelled out).
constexpr IdentityCase kIdentityCases[] = {
    {"walk", "walk:srw?steps=6"},
    {"walk", "walk:mhrw?steps=5"},
    {"walk", "walk:lazy?steps=5"},
    {"burnin", "burnin:srw?max_steps=400"},
    {"longrun", "longrun:lazy?thinning=3&max_steps=400"},
    {"we", "we:mhrw?diameter=3"},
    {"we-path", "we-path:srw?diameter=3"},
};

constexpr uint32_t kBlockSizes[] = {32, 512, 0};  // 0 = derived default
constexpr ScheduleOrder kOrders[] = {ScheduleOrder::kMostPending,
                                     ScheduleOrder::kRoundRobin,
                                     ScheduleOrder::kLeastPending};

bool RunIdentityGate(const Graph& g, uint64_t seed) {
  constexpr int kWalkers = 8;
  constexpr uint64_t kSamplesPerWalker = 4;
  bool ok = true;
  int runs = 0;

  for (const IdentityCase& c : kIdentityCases) {
    WalkerPoolOptions pool_options;
    pool_options.walkers = kWalkers;
    pool_options.samples_per_walker = kSamplesPerWalker;
    pool_options.session.seed = seed;
    const auto pool = RunWalkerPool(&g, c.spec, pool_options);
    if (!pool.ok()) {
      std::fprintf(stderr, "GATE: pool run failed for %s: %s\n", c.spec,
                   pool.status().ToString().c_str());
      ok = false;
      continue;
    }

    for (const uint32_t block : kBlockSizes) {
      for (const ScheduleOrder order : kOrders) {
        EngineOptions options;
        options.walkers = kWalkers;
        options.samples_per_walker = kSamplesPerWalker;
        options.block_nodes = block;
        options.schedule.order = order;
        options.session.seed = seed;
        const auto engine = RunWalkEngine(&g, c.spec, options);
        ++runs;
        if (!engine.ok()) {
          std::fprintf(stderr, "GATE: engine run failed for %s: %s\n", c.spec,
                       engine.status().ToString().c_str());
          ok = false;
          continue;
        }
        for (int w = 0; w < kWalkers; ++w) {
          const auto span = engine->SamplesFor(w);
          const std::vector<NodeId> got(span.begin(), span.end());
          if (got != pool->samples[w]) {
            std::fprintf(stderr,
                         "GATE: samples diverged: %s walker %d (block=%u, "
                         "order=%s)\n",
                         c.spec, w, block,
                         std::string(ScheduleOrderKey(order)).c_str());
            ok = false;
          }
          if (engine->walker_stats[w].query_cost !=
                  pool->stats[w].query_cost ||
              engine->walker_stats[w].total_queries !=
                  pool->stats[w].total_queries) {
            std::fprintf(
                stderr,
                "GATE: query cost diverged: %s walker %d (block=%u, "
                "order=%s): engine %llu/%llu vs pool %llu/%llu\n",
                c.spec, w, block,
                std::string(ScheduleOrderKey(order)).c_str(),
                static_cast<unsigned long long>(
                    engine->walker_stats[w].query_cost),
                static_cast<unsigned long long>(
                    engine->walker_stats[w].total_queries),
                static_cast<unsigned long long>(pool->stats[w].query_cost),
                static_cast<unsigned long long>(
                    pool->stats[w].total_queries));
            ok = false;
          }
        }
      }
    }
  }
  if (ok) {
    std::printf(
        "# identity: %d engine runs (%zu specs x %zu block sizes x %zu "
        "orders) byte-identical to the pool at identical query cost\n",
        runs, std::size(kIdentityCases), std::size(kBlockSizes),
        std::size(kOrders));
  }
  return ok;
}

struct SweepPoint {
  uint64_t walkers = 0;
  double steps_per_sec = 0.0;
  double elapsed_seconds = 0.0;
  uint64_t steps = 0;
  uint64_t block_switches = 0;
  uint64_t resident_peak = 0;
};

int Run() {
  const BenchEnv env = ReadBenchEnv(/*default_trials=*/1,
                                    /*default_scale=*/1.0);
  Rng graph_rng(env.seed);
  const NodeId small_n = 2000;
  const auto small = MakeBarabasiAlbert(small_n, 4, graph_rng);
  if (!small.ok()) {
    std::fprintf(stderr, "error: %s\n", small.status().ToString().c_str());
    return 1;
  }

  // --- gate 1: identity against the pool ------------------------------------
  bool ok = RunIdentityGate(*small, env.seed + 1);

  // --- gate 2: throughput sweep ---------------------------------------------
  const NodeId sweep_n =
      static_cast<NodeId>(static_cast<double>(50000) * env.scale);
  Rng sweep_rng(env.seed + 2);
  const auto sweep_graph = MakeBarabasiAlbert(sweep_n, 8, sweep_rng);
  if (!sweep_graph.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 sweep_graph.status().ToString().c_str());
    return 1;
  }
  const char* spec = "walk:srw?steps=5";
  constexpr uint64_t kStepsPerSample = 5;

  uint64_t walkers_max = 1000000;
  if (const char* raw = std::getenv("WNW_WALKERS_MAX")) {
    if (!ParseUint64(raw, &walkers_max) || walkers_max < 1000) {
      std::fprintf(stderr, "error: bad WNW_WALKERS_MAX '%s'\n", raw);
      return 1;
    }
  }

  // Pool baseline at the pool's architectural maximum: 64 OS threads, with
  // enough draws per walker that thread startup amortizes away. Median of
  // three runs — a single short pool run is noisy enough to flake the gate.
  const uint64_t pool_steps = 64ull * 200ull * kStepsPerSample;
  std::vector<double> pool_rates;
  for (int trial = 0; trial < 3; ++trial) {
    WalkerPoolOptions pool_options;
    pool_options.walkers = 64;
    pool_options.samples_per_walker = 200;
    pool_options.session.seed = env.seed + 3;
    const auto pool = RunWalkerPool(&*sweep_graph, spec, pool_options);
    if (!pool.ok()) {
      std::fprintf(stderr, "error: %s\n", pool.status().ToString().c_str());
      return 1;
    }
    pool_rates.push_back(
        pool->elapsed_seconds > 0.0
            ? static_cast<double>(pool_steps) / pool->elapsed_seconds
            : 0.0);
  }
  std::sort(pool_rates.begin(), pool_rates.end());
  const double pool_steps_per_sec = pool_rates[1];

  std::vector<SweepPoint> sweep;
  for (uint64_t walkers = 1000; walkers <= walkers_max; walkers *= 10) {
    EngineOptions options;
    options.walkers = walkers;
    options.samples_per_walker = 1;
    options.session.seed = env.seed + 3;
    const auto run = RunWalkEngine(&*sweep_graph, spec, options);
    if (!run.ok()) {
      std::fprintf(stderr, "error: engine at %llu walkers: %s\n",
                   static_cast<unsigned long long>(walkers),
                   run.status().ToString().c_str());
      return 1;
    }
    SweepPoint p;
    p.walkers = walkers;
    p.steps_per_sec = run->stats.engine_steps_per_sec;
    p.elapsed_seconds = run->stats.elapsed_seconds;
    p.steps = run->stats.engine_steps;
    p.block_switches = run->stats.engine_block_switches;
    p.resident_peak = run->stats.engine_resident_peak;
    sweep.push_back(p);
  }

  TablePrinter table({"walkers", "steps_per_sec", "elapsed_s", "steps",
                      "block_switches", "resident_peak"});
  table.AddComment(
      "Block-engine walker-count sweep (walk:srw?steps=5, flat mode)");
  table.AddComment(StrFormat(
      "graph: BA n=%u m=8; pool baseline: 64 walkers x 200 draws = %.0f "
      "steps/sec",
      static_cast<unsigned>(sweep_n), pool_steps_per_sec));
  for (const SweepPoint& p : sweep) {
    table.AddRow({TablePrinter::Cell(p.walkers),
                  TablePrinter::CellPrec(p.steps_per_sec, 6),
                  TablePrinter::CellPrec(p.elapsed_seconds, 4),
                  TablePrinter::Cell(p.steps),
                  TablePrinter::Cell(p.block_switches),
                  TablePrinter::Cell(p.resident_peak)});
  }
  table.Print(stdout);

  const SweepPoint& top = sweep.back();
  if (!(top.steps_per_sec >= pool_steps_per_sec)) {
    std::fprintf(stderr,
                 "GATE: engine at %llu walkers ran %.0f steps/sec, below "
                 "the 64-walker pool baseline of %.0f\n",
                 static_cast<unsigned long long>(top.walkers),
                 top.steps_per_sec, pool_steps_per_sec);
    ok = false;
  } else {
    std::printf(
        "# throughput: engine at %llu walkers: %.0f steps/sec vs pool "
        "baseline %.0f (%.1fx)\n",
        static_cast<unsigned long long>(top.walkers), top.steps_per_sec,
        pool_steps_per_sec, top.steps_per_sec / pool_steps_per_sec);
  }

  if (!ok) return 1;
  std::printf("# GATE OK: byte-identity held and the engine beat the pool's "
              "best throughput\n");
  return 0;
}

}  // namespace

int main() { return Run(); }
