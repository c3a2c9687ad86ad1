// Access-layer ablation: what does the cross-session QueryCache buy? Runs
// the same parallel error-vs-cost experiment against a 50ms +/- 10ms
// latency-simulating backend in three modes:
//
//   no-latency    — the paper's raw protocol, for the query-cost reference;
//   isolated      — every trial owns a private latency stack and pays for
//                   every query (the paper's protocol, but slow like the
//                   real service);
//   shared-cache  — parallel trials against one stack hand each other
//                   neighbor lists (the "Leveraging History" effect,
//                   Zhou et al. PVLDB'15).
//
// Expected outcome: shared-cache mean query cost (distinct billed fetches
// per trial) drops well below the isolated baseline at equal relative
// error, and the simulated waiting drops with it — queries served from
// history pay no network round trips.
//
// Env: WNW_TRIALS (default 8), WNW_SCALE (default 0.15), WNW_SEED.
#include <cstdio>
#include <memory>

#include "access/query_cache.h"
#include "datasets/social_datasets.h"
#include "experiments/harness.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace wnw;
  const BenchEnv env = ReadBenchEnv(8, 0.15);
  const SocialDataset ds = MakeGPlusLike(env.scale, env.seed);

  ErrorVsCostConfig base;
  base.sample_counts = {10, 20, 40};
  base.trials = env.trials;
  base.seed = env.seed;
  base.sampler_spec = StrFormat("we:mhrw?diameter=%u", ds.diameter_estimate);

  LatencyConfig latency;
  latency.mean_ms = 50.0;
  latency.jitter_ms = 10.0;

  TablePrinter table({"mode", "samples", "query_cost", "total_api_calls",
                      "waited_s", "rel_error", "cache_hit_rate"});
  table.AddComment("Shared QueryCache ablation (WE over MHRW, 50ms +/- 10ms "
                   "simulated latency)");
  table.AddComment(StrFormat("dataset: %s; %d parallel trials per mode",
                             ds.graph.DebugString().c_str(), env.trials));

  struct Mode {
    const char* label;
    bool with_latency;
    bool shared_cache;
  };
  for (const Mode mode : {Mode{"no-latency", false, false},
                          Mode{"isolated", true, false},
                          Mode{"shared-cache", true, true}}) {
    ErrorVsCostConfig config = base;
    std::shared_ptr<QueryCache> cache;
    if (mode.with_latency) config.session.latency = latency;
    if (mode.shared_cache) {
      cache = std::make_shared<QueryCache>();
      config.session.query_cache = cache;
    }
    const auto curve = RunErrorVsCost(ds, {"avg_deg", ""}, config);
    if (!curve.ok()) {
      std::fprintf(stderr, "error: %s\n", curve.status().ToString().c_str());
      return 1;
    }
    for (const auto& p : *curve) {
      if (p.completed_trials == 0) continue;
      table.AddRow({mode.label, TablePrinter::Cell(p.samples),
                    TablePrinter::CellPrec(p.mean_query_cost, 6),
                    TablePrinter::CellPrec(p.mean_total_queries, 6),
                    TablePrinter::CellPrec(p.mean_waited_seconds, 4),
                    TablePrinter::CellPrec(p.mean_rel_error, 4),
                    cache ? TablePrinter::CellPrec(cache->hit_rate(), 3)
                          : std::string("-")});
    }
  }
  table.Print(stdout);
  return 0;
}
