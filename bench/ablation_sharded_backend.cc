// Sharded-origin ablation: what does partitioning the simulated OSN across
// N single-threaded origin servers buy in wall-clock time? Runs the same
// pool of independent WALK-ESTIMATE walkers against ONE simulated service
// whose 50ms round trips REALLY sleep (LatencyConfig::sleep_scale), sweeping
// the shard count:
//
//   shards=1 — every request of every walker queues on one shard's service
//              lock: the "single origin" baseline the ISSUE motivates —
//              elapsed ≈ total fetches × RTT no matter how wide the fetch
//              executor's window is;
//   shards=N — requests route by vertex partition to N independent servers
//              (each with its own lock, RNG stream, limiter, and latency
//              stack): walkers queue only behind requests for the SAME
//              shard, so elapsed falls toward total/N × RTT, capped by the
//              partition's edge imbalance.
//
// Two acceptance bars (both enforced, nonzero exit on violation):
//   1. shards=8 is >= 3x faster than shards=1 in wall-clock elapsed at
//      byte-identical per-walker samples and identical total query cost —
//      sharding changes where queries are answered, never what they return
//      or how they are billed — and its peak of live OS threads is no
//      higher than shards=1's (all shards' sleeps complete from one
//      deadline timer);
//   2. every registered sampler draws identically on the unsharded backend
//      and on ShardedBackend(shards=1..8) for a fixed seed (checked without
//      sleeps, so the sweep stays fast).
//
// Env: WNW_TRIALS (walkers, default 8), WNW_SAMPLES (per walker, default 3),
//      WNW_SEED, WNW_SLEEP_SCALE (real sleep per simulated second,
//      default 0.1 => a 50ms RTT really sleeps 5ms).
#include <cstdio>
#include <string>
#include <vector>

#include "core/session.h"
#include "datasets/social_datasets.h"
#include "experiments/harness.h"
#include "thread_peak.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace wnw;
  const BenchEnv env = ReadBenchEnv(8, 1.0, 3);
  const double sleep_scale = EnvDouble("WNW_SLEEP_SCALE", 0.1);
  const SocialDataset ds = MakeSmallScaleFree(env.seed);
  const std::string spec =
      StrFormat("we:mhrw?diameter=%u", ds.diameter_estimate);

  LatencyConfig latency;
  latency.mean_ms = 50.0;
  latency.jitter_ms = 0.0;  // deterministic accounting across shard counts
  latency.sleep_scale = sleep_scale;

  WalkerPoolOptions base;
  base.walkers = env.trials;
  base.samples_per_walker = env.samples;
  base.session.seed = env.seed;
  base.session.latency = latency;
  // One executor wide enough that the shard service FIFOs — not the fetch
  // window — are the only serialization left.
  base.session.async = AsyncOptions{.window = 16};

  TablePrinter table({"shards", "walkers", "samples", "query_cost",
                      "waited_s", "elapsed_s", "speedup", "peak_threads",
                      "identical"});
  table.AddComment(
      "Sharded-origin ablation (WE over MHRW, 50ms simulated RTT really "
      "slept at sleep_scale, window=16)");
  table.AddComment(StrFormat(
      "dataset: %s; %d walkers x %llu samples; sleep_scale=%g; spec: %s",
      ds.graph.DebugString().c_str(), env.trials,
      static_cast<unsigned long long>(env.samples), sleep_scale,
      spec.c_str()));

  std::vector<std::vector<NodeId>> baseline_samples;
  uint64_t baseline_cost = 0;
  double shards1_elapsed = 0.0;
  int shards1_threads = 0;
  bool acceptance_ok = true;

  for (const int shards : {1, 2, 4, 8}) {
    WalkerPoolOptions pool = base;
    pool.session.shards = shards;
    pool.session.partition = ShardPartition::kModulo;
    ThreadPeakPoller poller;
    auto result = RunWalkerPool(&ds.graph, spec, pool);
    const int peak_threads = poller.Stop();
    if (!result.ok()) {
      std::fprintf(stderr, "error (shards=%d): %s\n", shards,
                   result.status().ToString().c_str());
      return 1;
    }
    uint64_t total_cost = 0;
    double waited = 0.0;
    for (const SessionStats& s : result->stats) {
      total_cost += s.query_cost;
      waited += s.waited_seconds;
    }
    const bool first = baseline_samples.empty();
    if (first) {
      baseline_samples = result->samples;
      baseline_cost = total_cost;
      shards1_elapsed = result->elapsed_seconds;
    }
    const bool identical =
        result->samples == baseline_samples && total_cost == baseline_cost;
    if (!identical) acceptance_ok = false;
    const double speedup = result->elapsed_seconds > 0.0
                               ? shards1_elapsed / result->elapsed_seconds
                               : 0.0;
    if (shards == 1) shards1_threads = peak_threads;
    if (shards == 8 && (speedup < 3.0 || peak_threads > shards1_threads)) {
      acceptance_ok = false;
    }
    table.AddRow({TablePrinter::Cell(shards),
                  TablePrinter::Cell(pool.walkers),
                  TablePrinter::Cell(env.samples),
                  TablePrinter::Cell(total_cost),
                  TablePrinter::CellPrec(waited, 3),
                  TablePrinter::CellPrec(result->elapsed_seconds, 3),
                  first ? std::string("1.00x") : StrFormat("%.2fx", speedup),
                  TablePrinter::Cell(peak_threads), identical ? "yes" : "NO"});
  }
  table.Print(stdout);

  // Bar 2: every registered sampler, identical draws across shard counts
  // (no latency, no sleeps — this is a correctness sweep, not a timing one).
  bool sweep_ok = true;
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    const std::string base_spec =
        name + ":mhrw" + (name.rfind("we", 0) == 0 ? "?diameter=4" : "");
    SessionOptions opts;
    opts.seed = env.seed + 17;
    auto baseline = SamplingSession::Open(&ds.graph, base_spec, opts);
    if (!baseline.ok()) {
      std::fprintf(stderr, "error (%s): %s\n", base_spec.c_str(),
                   baseline.status().ToString().c_str());
      return 1;
    }
    std::vector<NodeId> want;
    if (!(*baseline)->DrawInto(&want, 8).ok()) return 1;
    const char sep = base_spec.find('?') == std::string::npos ? '?' : '&';
    for (const int shards : {1, 2, 4, 8}) {
      const std::string sharded_spec =
          base_spec + sep + "shards=" + std::to_string(shards);
      auto session = SamplingSession::Open(&ds.graph, sharded_spec, opts);
      if (!session.ok()) {
        std::fprintf(stderr, "error (%s): %s\n", sharded_spec.c_str(),
                     session.status().ToString().c_str());
        return 1;
      }
      std::vector<NodeId> got;
      if (!(*session)->DrawInto(&got, 8).ok()) return 1;
      if (got != want) {
        sweep_ok = false;
        std::fprintf(stderr, "MISMATCH: %s draws differently than %s\n",
                     sharded_spec.c_str(), base_spec.c_str());
      }
    }
    std::printf("# sampler sweep: %-8s identical across shards=1..8: %s\n",
                name.c_str(), sweep_ok ? "yes" : "NO");
  }
  if (!sweep_ok) acceptance_ok = false;

  std::printf("# acceptance (shards=8 >= 3x over shards=1 on no more "
              "threads at identical samples+cost; all samplers identical): "
              "%s\n",
              acceptance_ok ? "PASS" : "FAIL");
  return acceptance_ok ? 0 : 1;
}
