// Async-executor ablation: what does a bounded in-flight request window buy
// in wall-clock time? Runs the same pool of independent WALK-ESTIMATE
// walkers against ONE simulated 50ms-RTT service that REALLY sleeps its
// round trips (LatencyConfig::sleep_scale), sweeping the executor window:
//
//   window=1  — every fetch of every walker serializes through one in-flight
//               slot: the "wait" baseline, elapsed ≈ #fetches × RTT;
//   window=W  — up to W requests overlap: independent walks hide each
//               other's round trips and prefetch batches fan out, so
//               elapsed falls toward the longest single-walker chain;
//   sync      — no executor at all: each walker waits out its own
//               requests serially (they complete from the deadline timer,
//               so the row's peak counts that one thread too), but walkers
//               overlap on their pool threads. Its samples and cost are
//               gated like every row; its time and threads are only
//               reported.
//
// The acceptance bars: window=8 must be >= 3x faster than window=1 in
// wall-clock elapsed_seconds, at IDENTICAL per-walker sample outputs and
// total query cost (the window changes when requests fly, never what they
// return or how they are billed); and its peak of live OS threads may not
// exceed window=1's — the sleeps complete from one deadline timer, so a
// wider window costs pending timers, not threads.
//
// Env: WNW_TRIALS (walkers, default 6), WNW_SAMPLES (per walker, default 6),
//      WNW_SEED, WNW_SLEEP_SCALE (real sleep per simulated second,
//      default 0.1 => a 50ms RTT really sleeps 5ms).
#include <cstdio>
#include <vector>

#include "core/session.h"
#include "datasets/social_datasets.h"
#include "experiments/harness.h"
#include "thread_peak.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace wnw;
  const BenchEnv env = ReadBenchEnv(6, 1.0, 6);
  const double sleep_scale = EnvDouble("WNW_SLEEP_SCALE", 0.1);
  const SocialDataset ds = MakeSmallScaleFree(env.seed);
  const std::string spec =
      StrFormat("we:mhrw?diameter=%u", ds.diameter_estimate);

  LatencyConfig latency;
  latency.mean_ms = 50.0;
  latency.jitter_ms = 0.0;  // deterministic accounting across modes
  latency.sleep_scale = sleep_scale;

  WalkerPoolOptions base;
  base.walkers = env.trials;
  base.samples_per_walker = env.samples;
  base.session.seed = env.seed;
  base.session.latency = latency;

  TablePrinter table({"mode", "walkers", "samples", "query_cost", "waited_s",
                      "elapsed_s", "speedup", "peak_threads", "identical"});
  table.AddComment(
      "Async in-flight window ablation (WE over MHRW, 50ms simulated RTT, "
      "really slept at sleep_scale)");
  table.AddComment(StrFormat(
      "dataset: %s; %d walkers x %llu samples; sleep_scale=%g; spec: %s",
      ds.graph.DebugString().c_str(), env.trials,
      static_cast<unsigned long long>(env.samples), sleep_scale,
      spec.c_str()));

  struct Mode {
    std::string label;
    int window;  // 0 = no executor ("sync")
  };
  std::vector<Mode> modes = {{"window=1", 1}, {"window=2", 2},
                             {"window=4", 4}, {"window=8", 8},
                             {"sync", 0}};

  std::vector<std::vector<NodeId>> baseline_samples;
  uint64_t baseline_cost = 0;
  double baseline_elapsed = 0.0;
  int window1_threads = 0;
  bool acceptance_ok = true;

  for (const Mode& mode : modes) {
    WalkerPoolOptions pool = base;
    if (mode.window > 0) {
      pool.session.async = AsyncOptions{.window = mode.window};
    }
    ThreadPeakPoller poller;
    auto result = RunWalkerPool(&ds.graph, spec, pool);
    const int peak_threads = poller.Stop();
    if (!result.ok()) {
      std::fprintf(stderr, "error (%s): %s\n", mode.label.c_str(),
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
      baseline_elapsed = result->elapsed_seconds;
    }
    const bool identical =
        result->samples == baseline_samples && total_cost == baseline_cost;
    if (!identical) acceptance_ok = false;
    const double speedup =
        result->elapsed_seconds > 0.0
            ? baseline_elapsed / result->elapsed_seconds
            : 0.0;
    if (mode.window == 1) window1_threads = peak_threads;
    if (mode.window == 8 && (speedup < 3.0 || peak_threads > window1_threads)) {
      acceptance_ok = false;
    }
    table.AddRow({mode.label, TablePrinter::Cell(pool.walkers),
                  TablePrinter::Cell(env.samples),
                  TablePrinter::Cell(total_cost),
                  TablePrinter::CellPrec(waited, 3),
                  TablePrinter::CellPrec(result->elapsed_seconds, 3),
                  first ? std::string("1.00x")
                        : StrFormat("%.2fx", speedup),
                  TablePrinter::Cell(peak_threads), identical ? "yes" : "NO"});
  }
  table.Print(stdout);
  std::printf("# acceptance (window=8 >= 3x over window=1 on no more "
              "threads, identical samples+cost): %s\n",
              acceptance_ok ? "PASS" : "FAIL");
  return acceptance_ok ? 0 : 1;
}
