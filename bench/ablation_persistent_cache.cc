// Persistent-cache ablation + acceptance gate: does saving the QueryCache
// to disk and reloading it in a second run actually buy the cross-RUN
// history reuse the storage layer exists for?
//
//   run 1 (cold)  — parallel error-vs-cost trials share a fresh QueryCache;
//                   every first touch pays a backend query. The cache is
//                   then persisted with QueryCache::Save.
//   run 2 (warm)  — a brand-new QueryCache loads that file and the SAME
//                   experiment (same seeds) runs again.
//
// The gate: both runs must produce IDENTICAL estimates at every checkpoint
// (the cache returns the same deterministic responses the backend would),
// and the warm run's mean query cost — the paper's distinct-node metric —
// must be materially lower (< half) than the cold run's. Exits nonzero on
// any violation, so CI catches a persistence format that silently loses
// entries or (worse) changes responses.
//
// Env: WNW_TRIALS (default 6), WNW_SCALE (default 0.12), WNW_SEED.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "access/query_cache.h"
#include "datasets/social_datasets.h"
#include "experiments/harness.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace wnw;
  const BenchEnv env = ReadBenchEnv(6, 0.12);
  const SocialDataset ds = MakeGPlusLike(env.scale, env.seed);

  ErrorVsCostConfig config;
  config.sample_counts = {10, 20, 40};
  config.trials = env.trials;
  config.seed = env.seed;
  config.sampler_spec = StrFormat("we:mhrw?diameter=%u", ds.diameter_estimate);

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string cache_path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                                 "/wnw_ablation_persistent_cache.wnwcache";
  std::remove(cache_path.c_str());

  auto run = [&](std::shared_ptr<QueryCache> cache)
      -> Result<std::vector<CurvePoint>> {
    ErrorVsCostConfig mode = config;
    mode.session.query_cache = std::move(cache);
    return RunErrorVsCost(ds, {"avg_deg", ""}, mode);
  };

  // Run 1: cold cache, then persist it.
  auto cold_cache = std::make_shared<QueryCache>();
  const auto cold = run(cold_cache);
  if (!cold.ok()) {
    std::fprintf(stderr, "error: %s\n", cold.status().ToString().c_str());
    return 1;
  }
  const Status saved = cold_cache->Save(cache_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }

  // Run 2: a different process would do exactly this — fresh cache, Load.
  auto warm_cache = std::make_shared<QueryCache>();
  const Status loaded = warm_cache->Load(cache_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.ToString().c_str());
    return 1;
  }
  const auto warm = run(warm_cache);
  if (!warm.ok()) {
    std::fprintf(stderr, "error: %s\n", warm.status().ToString().c_str());
    return 1;
  }

  TablePrinter table({"run", "samples", "query_cost", "waited_s", "rel_error",
                      "cache_entries"});
  table.AddComment(
      "Persistent QueryCache warm start (WE over MHRW; run 2 reloads run "
      "1's cache from disk)");
  table.AddComment(StrFormat(
      "dataset: %s; %d parallel trials per run; cache file: %s (%llu "
      "entries persisted)",
      ds.graph.DebugString().c_str(), env.trials, cache_path.c_str(),
      static_cast<unsigned long long>(cold_cache->size())));
  struct Run {
    const char* label;
    const std::vector<CurvePoint>* points;
    const QueryCache* cache;
  };
  for (const Run run_row : {Run{"cold", &*cold, cold_cache.get()},
                            Run{"warm", &*warm, warm_cache.get()}}) {
    for (const auto& p : *run_row.points) {
      if (p.completed_trials == 0) continue;
      table.AddRow({run_row.label, TablePrinter::Cell(p.samples),
                    TablePrinter::CellPrec(p.mean_query_cost, 6),
                    TablePrinter::CellPrec(p.mean_waited_seconds, 4),
                    TablePrinter::CellPrec(p.mean_rel_error, 4),
                    TablePrinter::Cell(static_cast<int64_t>(
                        run_row.cache->size()))});
    }
  }
  table.Print(stdout);

  // --- the gate --------------------------------------------------------------
  bool ok = true;
  for (size_t i = 0; i < cold->size(); ++i) {
    const CurvePoint& c = (*cold)[i];
    const CurvePoint& w = (*warm)[i];
    if (c.completed_trials == 0 || c.completed_trials != w.completed_trials) {
      std::fprintf(stderr, "GATE: checkpoint %d lost trials (%d vs %d)\n",
                   c.samples, c.completed_trials, w.completed_trials);
      ok = false;
      continue;
    }
    // Identical seeds + deterministic responses => identical estimates.
    if (c.mean_rel_error != w.mean_rel_error) {
      std::fprintf(stderr,
                   "GATE: estimates diverged at %d samples (rel_error %.12f "
                   "cold vs %.12f warm) — the persisted cache changed "
                   "responses\n",
                   c.samples, c.mean_rel_error, w.mean_rel_error);
      ok = false;
    }
    if (!(w.mean_query_cost < c.mean_query_cost) ||
        !(w.mean_query_cost <= 0.5 * c.mean_query_cost)) {
      std::fprintf(stderr,
                   "GATE: warm start did not materially cut query cost at %d "
                   "samples (%.1f cold vs %.1f warm; need warm < cold/2)\n",
                   c.samples, c.mean_query_cost, w.mean_query_cost);
      ok = false;
    }
  }
  std::remove(cache_path.c_str());
  if (!ok) return 1;
  std::printf(
      "# GATE OK: warm run reused the persisted history (identical "
      "estimates, query cost cut by more than half)\n");
  return 0;
}
