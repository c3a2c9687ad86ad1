// Out-of-core engine ablation + acceptance gate: serve a snapshot several
// times larger than the resident-byte budget and prove the residency
// machinery (storage/residency.h) pays for itself without costing anything.
//
//   identity — for EVERY sampler family, a budgeted run (residency_mb set,
//     prefetch on) must emit byte-identical per-walker samples at identical
//     per-walker logical query cost to the unbudgeted run over the same
//     snapshot. madvise is advice; if paging can change an estimator the
//     subsystem is broken, not slow.
//
//   paging — the budgeted timed sweep must actually page: prefetches and
//     releases both nonzero, the manager's charged high-water mark within
//     the budget, and the budget itself a small fraction of the snapshot.
//     Without this the identity and wall-clock gates would pass vacuously
//     on a graph that happened to fit.
//
//   wall-clock — with the same budget, the prefetching sweep (scheduler
//     look-ahead feeding MADV_WILLNEED + page touches on the manager's
//     background thread) must beat the no-prefetch baseline that takes
//     every refault inline on the stepping thread. Medians over alternating
//     trials; one worker thread so the overlap being measured is the
//     prefetch thread's, not incidental parallelism.
//
// The process also arms RLIMIT_AS as a hard backstop. The cap cannot be
// tight — an mmap of the whole snapshot must still succeed, and mappings
// charge address space whether or not the pages are resident — so it is
// set to current-VmSize + 2x the snapshot + slack: enough to prove the
// bench completes under a bounded address space, impossible to satisfy by
// simply heap-copying the file a few times over. The slack is a fixed
// 256 MiB plus what each thread the engine runs at once reserves: its
// stack, and the 64 MiB heap arena glibc maps for a thread that allocates.
//
// Exits nonzero on any violation. Env: WNW_SEED, WNW_TRIALS, WNW_SCALE
// (scales the graph).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__linux__)
#include <fcntl.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "access/snapshot_backend.h"
#include "engine/walk_engine.h"
#include "experiments/harness.h"
#include "graph/generators.h"
#include "storage/residency.h"
#include "storage/snapshot.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace wnw;

// ~5x smaller than the snapshot. It must also comfortably hold one pinned
// block plus prefetch_depth queued ones: BA degree skew makes the lowest-ID
// blocks span megabytes (the hubs live there), and a budget the pinned
// working set overflows would thrash prefetched blocks out before they are
// stepped. kTimedBlockNodes keeps the worst block span a fraction of this.
constexpr uint64_t kBudgetBytes = 8ull << 20;
constexpr uint32_t kTimedBlockNodes = 2048;

struct IdentityCase {
  const char* sampler;
  const char* spec;
};

// One spec per registered sampler family (same coverage table as
// ablation_block_engine; engine_test keeps the registry honest).
constexpr IdentityCase kIdentityCases[] = {
    {"walk", "walk:srw?steps=6"},
    {"walk", "walk:mhrw?steps=5"},
    {"walk", "walk:lazy?steps=5"},
    {"burnin", "burnin:srw?max_steps=400"},
    {"longrun", "longrun:lazy?thinning=3&max_steps=400"},
    {"we", "we:mhrw?diameter=3"},
    {"we-path", "we-path:srw?diameter=3"},
};

std::string SnapshotPath() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/wnw_oocore_bench.snap";
}

// Arms the address-space backstop (see file comment for why it is loose).
// Returns the cap in bytes, 0 where RLIMIT_AS is unavailable.
uint64_t ArmAddressSpaceCap(uint64_t snapshot_bytes) {
#if defined(__linux__)
  const uint64_t vm_now = [] {
    std::FILE* f = std::fopen("/proc/self/statm", "re");
    if (f == nullptr) return uint64_t{0};
    unsigned long long vm_pages = 0;
    const int got = std::fscanf(f, "%llu", &vm_pages);
    std::fclose(f);
    return got == 1 ? uint64_t{vm_pages} * 4096 : uint64_t{0};
  }();
  if (vm_now == 0) return 0;
  // The engine's workers (DefaultThreadCount in the identity gate), its
  // resident-set sampler and the residency prefetcher.
  const uint64_t threads = static_cast<uint64_t>(DefaultThreadCount()) + 2;
  const uint64_t per_thread = [] {
    pthread_attr_t attr;
    size_t stack = 0;
    if (pthread_getattr_default_np(&attr) == 0) {
      pthread_attr_getstacksize(&attr, &stack);
      pthread_attr_destroy(&attr);
    }
    return uint64_t{stack} + (64ull << 20);  // + glibc's per-thread arena
  }();
  const uint64_t cap = vm_now + 2 * snapshot_bytes + (256ull << 20) +
                       threads * per_thread;
  struct rlimit limit;
  limit.rlim_cur = cap;
  limit.rlim_max = cap;
  if (::setrlimit(RLIMIT_AS, &limit) != 0) return 0;
  return cap;
#else
  (void)snapshot_bytes;
  return 0;
#endif
}

bool RunIdentityGate(const Graph& g,
                     const std::shared_ptr<AccessBackend>& backend,
                     uint64_t seed, int* runs) {
  constexpr int kWalkers = 8;
  constexpr uint64_t kSamplesPerWalker = 4;
  bool ok = true;

  for (const IdentityCase& c : kIdentityCases) {
    EngineOptions base;
    base.walkers = kWalkers;
    base.samples_per_walker = kSamplesPerWalker;
    base.session.seed = seed;
    base.session.backend = backend;

    EngineOptions unbudgeted = base;  // residency off: the reference run
    const auto reference = RunWalkEngine(&g, c.spec, unbudgeted);
    if (!reference.ok()) {
      std::fprintf(stderr, "GATE: unbudgeted run failed for %s: %s\n", c.spec,
                   reference.status().ToString().c_str());
      ok = false;
      continue;
    }

    EngineOptions budgeted = base;
    budgeted.residency_budget_bytes = kBudgetBytes;
    budgeted.prefetch_depth = 2;
    const auto paged = RunWalkEngine(&g, c.spec, budgeted);
    *runs += 2;
    if (!paged.ok()) {
      std::fprintf(stderr, "GATE: budgeted run failed for %s: %s\n", c.spec,
                   paged.status().ToString().c_str());
      ok = false;
      continue;
    }
    if (paged->stats.engine_residency_budget != kBudgetBytes) {
      std::fprintf(stderr,
                   "GATE: %s: budgeted run did not engage residency "
                   "management (budget stat %llu)\n",
                   c.spec,
                   static_cast<unsigned long long>(
                       paged->stats.engine_residency_budget));
      ok = false;
    }
    for (int w = 0; w < kWalkers; ++w) {
      const auto ref_span = reference->SamplesFor(w);
      const auto got_span = paged->SamplesFor(w);
      if (!std::equal(ref_span.begin(), ref_span.end(), got_span.begin(),
                      got_span.end())) {
        std::fprintf(stderr,
                     "GATE: samples diverged under a residency budget: %s "
                     "walker %d\n",
                     c.spec, w);
        ok = false;
      }
      if (paged->walker_stats[w].query_cost !=
              reference->walker_stats[w].query_cost ||
          paged->walker_stats[w].total_queries !=
              reference->walker_stats[w].total_queries) {
        std::fprintf(
            stderr,
            "GATE: query cost diverged under a residency budget: %s walker "
            "%d: budgeted %llu/%llu vs unbudgeted %llu/%llu\n",
            c.spec, w,
            static_cast<unsigned long long>(paged->walker_stats[w].query_cost),
            static_cast<unsigned long long>(
                paged->walker_stats[w].total_queries),
            static_cast<unsigned long long>(
                reference->walker_stats[w].query_cost),
            static_cast<unsigned long long>(
                reference->walker_stats[w].total_queries));
        ok = false;
      }
    }
  }
  return ok;
}

// Makes the next sweep genuinely out-of-core: drop the mapping's page-table
// entries (MADV_DONTNEED on a read-only file mapping — they refault from the
// file), then evict the file's clean pages from the page cache, so refaults
// are real reads. This is what turns the wall-clock gate into an I/O-overlap
// measurement: MADV_WILLNEED schedules readahead and returns, so the
// manager's prefetch thread rides the disk while the stepping thread rides
// the CPU — a win that holds even on a single-CPU runner, where overlapping
// two CPU-bound threads is impossible by construction.
class ColdFile {
 public:
  explicit ColdFile(const std::string& path) {
#if defined(__linux__)
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ >= 0) ::fdatasync(fd_);  // writeback, so DONTNEED can evict
#else
    (void)path;
#endif
  }
  ~ColdFile() {
#if defined(__linux__)
    if (fd_ >= 0) ::close(fd_);
#endif
  }

  void Evict(const Graph& g) {
#if defined(__linux__)
    storage::SystemPager().DontNeed(
        std::as_bytes(g.adjacency()).data(),
        std::as_bytes(g.adjacency()).size());
    if (fd_ >= 0) ::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
#else
    (void)g;
#endif
  }

 private:
  int fd_ = -1;
};

struct TimedRun {
  double elapsed_seconds = 0.0;
  uint64_t prefetches = 0;
  uint64_t releases = 0;
  uint64_t peak_bytes = 0;
  uint64_t block_switches = 0;
};

bool TimedSweep(const Graph& g, const std::shared_ptr<AccessBackend>& backend,
                uint64_t seed, uint64_t walkers, int prefetch_depth,
                TimedRun* out) {
  EngineOptions options;
  options.walkers = walkers;
  options.samples_per_walker = 1;
  options.block_nodes = kTimedBlockNodes;
  options.threads = 1;  // isolate prefetch-thread overlap (file comment)
  options.session.seed = seed;
  options.session.backend = backend;
  options.residency_budget_bytes = kBudgetBytes;
  options.prefetch_depth = prefetch_depth;
  const auto run = RunWalkEngine(&g, "walk:srw?steps=8", options);
  if (!run.ok()) {
    std::fprintf(stderr, "error: timed sweep (prefetch=%d): %s\n",
                 prefetch_depth, run.status().ToString().c_str());
    return false;
  }
  out->elapsed_seconds = run->stats.elapsed_seconds;
  out->prefetches = run->stats.engine_residency_prefetches;
  out->releases = run->stats.engine_residency_releases;
  out->peak_bytes = run->stats.engine_residency_peak_bytes;
  out->block_switches = run->stats.engine_block_switches;
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int Run() {
  const BenchEnv env = ReadBenchEnv(/*default_trials=*/5,
                                    /*default_scale=*/1.0);

  // A snapshot roughly 10x the budget: BA m=8 gives ~16 adjacency entries
  // per node, so 600k nodes is ~38 MB of mmap'd adjacency vs a 4 MiB cap.
  const NodeId n =
      static_cast<NodeId>(std::max(50000.0, 600000.0 * env.scale));
  Rng graph_rng(env.seed);
  const auto built = MakeBarabasiAlbert(n, 8, graph_rng);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const std::string path = SnapshotPath();
  if (const Status status = WriteGraphSnapshot(*built, path); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::error_code ec;
  const uint64_t snapshot_bytes = std::filesystem::file_size(path, ec);
  if (ec || snapshot_bytes == 0) {
    std::fprintf(stderr, "error: cannot stat %s\n", path.c_str());
    return 1;
  }

  const uint64_t as_cap = ArmAddressSpaceCap(snapshot_bytes);

  auto backend = SnapshotBackend::Open(path);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.status().ToString().c_str());
    return 1;
  }
  const std::shared_ptr<AccessBackend> shared = *backend;
  const Graph& g = static_cast<const SnapshotBackend&>(*shared).graph();

  bool ok = true;
  if (kBudgetBytes * 4 >= snapshot_bytes) {
    std::fprintf(stderr,
                 "GATE: snapshot (%llu bytes) is not out-of-core relative "
                 "to the %llu-byte budget\n",
                 static_cast<unsigned long long>(snapshot_bytes),
                 static_cast<unsigned long long>(kBudgetBytes));
    ok = false;
  }

  // --- gate 1: byte identity under a budget --------------------------------
  int identity_runs = 0;
  if (!RunIdentityGate(g, shared, env.seed + 1, &identity_runs)) ok = false;
  if (ok) {
    std::printf(
        "# identity: %d snapshot-served engine runs, budgeted == unbudgeted "
        "(samples and per-walker costs) across %zu sampler specs\n",
        identity_runs, std::size(kIdentityCases));
  }

  // --- gates 2+3: paging happened, and prefetch beats no-prefetch ----------
  const uint64_t walkers = static_cast<uint64_t>(
      std::max(10000.0, 100000.0 * env.scale));
  ColdFile cold(path);

  std::vector<double> baseline_times;
  std::vector<double> prefetch_times;
  TimedRun baseline_last;
  TimedRun prefetch_last;
  for (int trial = 0; trial < env.trials; ++trial) {
    // Every trial starts cold (see ColdFile) and the configs alternate, so
    // page-cache drift and CPU-frequency wander hit both sides equally.
    cold.Evict(g);
    if (!TimedSweep(g, shared, env.seed + 2, walkers, 0, &baseline_last)) {
      return 1;
    }
    cold.Evict(g);
    if (!TimedSweep(g, shared, env.seed + 2, walkers, 2, &prefetch_last)) {
      return 1;
    }
    baseline_times.push_back(baseline_last.elapsed_seconds);
    prefetch_times.push_back(prefetch_last.elapsed_seconds);
  }
  const double baseline_median = Median(baseline_times);
  const double prefetch_median = Median(prefetch_times);

  if (prefetch_last.prefetches == 0 || prefetch_last.releases == 0) {
    std::fprintf(stderr,
                 "GATE: budgeted sweep did not page (prefetches=%llu, "
                 "releases=%llu) — graph fits the budget, gate is vacuous\n",
                 static_cast<unsigned long long>(prefetch_last.prefetches),
                 static_cast<unsigned long long>(prefetch_last.releases));
    ok = false;
  }
  if (prefetch_last.peak_bytes > kBudgetBytes ||
      baseline_last.peak_bytes > kBudgetBytes) {
    std::fprintf(stderr,
                 "GATE: charged residency exceeded the budget (peaks %llu / "
                 "%llu vs %llu)\n",
                 static_cast<unsigned long long>(prefetch_last.peak_bytes),
                 static_cast<unsigned long long>(baseline_last.peak_bytes),
                 static_cast<unsigned long long>(kBudgetBytes));
    ok = false;
  }
  if (!(prefetch_median < baseline_median)) {
    std::fprintf(stderr,
                 "GATE: prefetching sweep (median %.4fs) did not beat the "
                 "no-prefetch budgeted baseline (median %.4fs)\n",
                 prefetch_median, baseline_median);
    ok = false;
  }

  TablePrinter table({"config", "median_s", "prefetches", "releases",
                      "peak_charged", "block_switches"});
  table.AddComment(StrFormat(
      "Out-of-core sweep: walk:srw?steps=8, 1 worker thread, budget %llu "
      "MiB, cold page cache per trial, %d trials",
      static_cast<unsigned long long>(kBudgetBytes >> 20), env.trials));
  table.AddComment(StrFormat(
      "graph: BA n=%u m=8; snapshot %llu bytes; walkers %llu; AS cap %llu",
      static_cast<unsigned>(n),
      static_cast<unsigned long long>(snapshot_bytes),
      static_cast<unsigned long long>(walkers),
      static_cast<unsigned long long>(as_cap)));
  table.AddRow({TablePrinter::Cell("prefetch=0"),
                TablePrinter::CellPrec(baseline_median, 4),
                TablePrinter::Cell(baseline_last.prefetches),
                TablePrinter::Cell(baseline_last.releases),
                TablePrinter::Cell(baseline_last.peak_bytes),
                TablePrinter::Cell(baseline_last.block_switches)});
  table.AddRow({TablePrinter::Cell("prefetch=2"),
                TablePrinter::CellPrec(prefetch_median, 4),
                TablePrinter::Cell(prefetch_last.prefetches),
                TablePrinter::Cell(prefetch_last.releases),
                TablePrinter::Cell(prefetch_last.peak_bytes),
                TablePrinter::Cell(prefetch_last.block_switches)});
  table.Print(stdout);

  std::remove(path.c_str());

  if (!ok) return 1;
  std::printf(
      "# GATE OK: identity held under a %llu-byte budget on a %llu-byte "
      "snapshot, paging engaged, prefetch beat no-prefetch (%.4fs vs "
      "%.4fs, %.2fx)\n",
      static_cast<unsigned long long>(kBudgetBytes),
      static_cast<unsigned long long>(snapshot_bytes), prefetch_median,
      baseline_median, baseline_median / prefetch_median);
  return 0;
}

}  // namespace

int main() { return Run(); }
