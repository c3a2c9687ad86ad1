// Streaming-ingest ablation + acceptance gate (storage/ingest.h): the
// external-sort pipeline must build a snapshot several times larger than
// its memory budget without the process RSS ever exceeding the budget plus
// a fixed slack, and the file it writes must be byte-identical to the
// in-memory writer's.
//
//   bounded-rss — ingest a uniform-random multigraph whose snapshot is at
//     least 4x the 8 MiB budget; the VmHWM delta across the ingest must
//     stay within budget + slack. RLIMIT_AS is armed during the ingest as
//     a hard backstop (restored afterwards so the verification mmap can
//     map the finished file), so "accidentally materialize the CSR" turns
//     into a loud failure rather than a quietly fat process.
//
//   identity — the streamed file must be byte-for-byte identical to
//     WriteGraphSnapshot over the graph built in memory from the same
//     stream: on the big bounded-rss graph, on a small multi-run ingest
//     (tiny sort buffer, fan-in 2: hundreds of runs, several merge
//     passes), and on a scale-free BA graph fed through the
//     GraphEdgeSource adapter.
//
//   throughput — ingest edges/s is measured and printed (no threshold:
//     CI machines vary too much).
//
// Exits nonzero on any violation. Env: WNW_SEED, WNW_SCALE.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "experiments/harness.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "storage/ingest.h"
#include "storage/snapshot.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace wnw;

constexpr uint64_t kBudgetBytes = 8ull << 20;
// Fixed allowance on top of the budget for everything the pipeline cannot
// reasonably count: allocator slop, stdio machinery, code+stack, the edge
// batch. The gate is budget + slack, measured over the whole process.
constexpr uint64_t kSlackBytes = 16ull << 20;

std::string BenchPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

// Peak resident set of this process so far, from /proc (0 off-Linux — the
// RSS gate is skipped there but identity still runs).
uint64_t ReadVmHwmBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

uint64_t ReadVmSizeBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "re");
  if (f == nullptr) return 0;
  unsigned long long vm_pages = 0;
  const int got = std::fscanf(f, "%llu", &vm_pages);
  std::fclose(f);
  return got == 1 ? uint64_t{vm_pages} * 4096 : 0;
#else
  return 0;
#endif
}

// Arms a soft RLIMIT_AS backstop for the duration of the ingest; Disarm()
// restores the original limits so the post-ingest verification can mmap
// the (deliberately larger-than-budget) snapshot.
class AddressSpaceBackstop {
 public:
  explicit AddressSpaceBackstop(uint64_t extra_bytes) {
#if defined(__linux__)
    if (::getrlimit(RLIMIT_AS, &saved_) != 0) return;
    const uint64_t vm_now = ReadVmSizeBytes();
    if (vm_now == 0) return;
    struct rlimit capped = saved_;
    cap_ = vm_now + extra_bytes;
    capped.rlim_cur = cap_;
    if (::setrlimit(RLIMIT_AS, &capped) != 0) cap_ = 0;
#else
    (void)extra_bytes;
#endif
  }
  void Disarm() {
#if defined(__linux__)
    if (cap_ != 0) ::setrlimit(RLIMIT_AS, &saved_);
#endif
    cap_ = 0;
  }
  ~AddressSpaceBackstop() { Disarm(); }

  uint64_t cap() const { return cap_; }

 private:
#if defined(__linux__)
  struct rlimit saved_ {};
#endif
  uint64_t cap_ = 0;
};

bool FilesIdentical(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa.is_open() || !fb.is_open()) return false;
  std::vector<char> ba(1 << 20), bb(1 << 20);
  for (;;) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    if (fa.gcount() != fb.gcount()) return false;
    if (fa.gcount() == 0) return !fa.bad() && !fb.bad();
    if (std::memcmp(ba.data(), bb.data(),
                    static_cast<size_t>(fa.gcount())) != 0) {
      return false;
    }
  }
}

bool ByteIdentityCase(EdgeSource& streamed_source, const Graph& reference,
                      const storage::IngestOptions& options,
                      const char* tag) {
  const std::string streamed_path =
      BenchPath("wnw_ingest_bench_streamed.snap");
  const std::string reference_path =
      BenchPath("wnw_ingest_bench_reference.snap");
  bool ok = true;
  const auto stats =
      storage::StreamGraphSnapshot(streamed_source, streamed_path, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "GATE: %s: streaming ingest failed: %s\n", tag,
                 stats.status().ToString().c_str());
    return false;
  }
  if (const Status s = WriteGraphSnapshot(reference, reference_path);
      !s.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", tag, s.ToString().c_str());
    return false;
  }
  if (!FilesIdentical(streamed_path, reference_path)) {
    std::fprintf(stderr,
                 "GATE: %s: streamed snapshot differs from the in-memory "
                 "writer's bytes\n",
                 tag);
    ok = false;
  } else {
    std::printf("# identity: %s — %llu edges, %llu runs, %llu merge "
                "passes, byte-identical\n",
                tag, static_cast<unsigned long long>(stats->input_edges),
                static_cast<unsigned long long>(stats->sorted_runs),
                static_cast<unsigned long long>(stats->merge_passes));
  }
  std::remove(streamed_path.c_str());
  std::remove(reference_path.c_str());
  return ok;
}

int Run() {
  const BenchEnv env = ReadBenchEnv(/*default_trials=*/1,
                                    /*default_scale=*/1.0);
  bool ok = true;

  // --- gate 1: bounded peak RSS on an out-of-core ingest -------------------
  // The RSS measurement MUST run before anything builds a big in-memory
  // graph: VmHWM is a lifetime high-water mark, so any earlier resident
  // spike would mask what the ingest adds.
  const NodeId n = static_cast<NodeId>(
      std::max(600000.0, 2000000.0 * env.scale));
  const uint64_t m = uint64_t{n} * 8;
  const std::string big_path = BenchPath("wnw_ingest_bench_big.snap");

  storage::IngestOptions options;
  options.memory_budget_bytes = kBudgetBytes;

  const uint64_t hwm_before = ReadVmHwmBytes();
  storage::IngestStats big_stats;
  uint64_t as_cap = 0;
  {
    AddressSpaceBackstop backstop(kBudgetBytes + kSlackBytes +
                                  (32ull << 20));
    as_cap = backstop.cap();
    RandomEdgeSource source(n, m, env.seed);
    auto stats = storage::StreamGraphSnapshot(source, big_path, options);
    if (!stats.ok()) {
      std::fprintf(stderr, "GATE: out-of-core ingest failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    big_stats = *stats;
  }
  const uint64_t hwm_after = ReadVmHwmBytes();
  const uint64_t rss_delta =
      hwm_after > hwm_before ? hwm_after - hwm_before : 0;

  std::error_code ec;
  const uint64_t snapshot_bytes = std::filesystem::file_size(big_path, ec);
  if (ec || snapshot_bytes == 0) {
    std::fprintf(stderr, "error: cannot stat %s\n", big_path.c_str());
    return 1;
  }
  if (snapshot_bytes < 4 * kBudgetBytes) {
    std::fprintf(stderr,
                 "GATE: snapshot (%llu bytes) is not out-of-core relative "
                 "to the %llu-byte budget — the RSS gate would be vacuous\n",
                 static_cast<unsigned long long>(snapshot_bytes),
                 static_cast<unsigned long long>(kBudgetBytes));
    ok = false;
  }
  if (hwm_after == 0) {
    std::printf("# rss: VmHWM unavailable on this platform, gate skipped\n");
  } else if (rss_delta > kBudgetBytes + kSlackBytes) {
    std::fprintf(stderr,
                 "GATE: ingest peak RSS delta %llu bytes exceeded budget "
                 "%llu + slack %llu\n",
                 static_cast<unsigned long long>(rss_delta),
                 static_cast<unsigned long long>(kBudgetBytes),
                 static_cast<unsigned long long>(kSlackBytes));
    ok = false;
  } else {
    std::printf(
        "# rss: peak delta %llu bytes across a %llu-byte snapshot "
        "(budget %llu + slack %llu held)\n",
        static_cast<unsigned long long>(rss_delta),
        static_cast<unsigned long long>(snapshot_bytes),
        static_cast<unsigned long long>(kBudgetBytes),
        static_cast<unsigned long long>(kSlackBytes));
  }

  // The streamed file must verify (magic, checksum, CSR shape) like any
  // other snapshot — the loader is the reader of record.
  if (const auto info = ReadSnapshotInfo(big_path); !info.ok()) {
    std::fprintf(stderr, "GATE: streamed snapshot failed verification: %s\n",
                 info.status().ToString().c_str());
    ok = false;
  } else if (info->num_nodes != n || info->num_edges != big_stats.num_edges) {
    std::fprintf(stderr, "GATE: streamed snapshot meta disagrees with the "
                         "ingest stats\n");
    ok = false;
  }

  // --- gate 2: byte identity with the in-memory writer ---------------------
  // Big graph first (now that the RSS number is banked): same seed, same
  // stream, built through GraphBuilder.
  {
    const auto reference = MakeUniformRandomMultigraph(n, m, env.seed);
    if (!reference.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    const std::string reference_path =
        BenchPath("wnw_ingest_bench_bigref.snap");
    if (const Status s = WriteGraphSnapshot(*reference, reference_path);
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    if (!FilesIdentical(big_path, reference_path)) {
      std::fprintf(stderr,
                   "GATE: out-of-core snapshot differs from the in-memory "
                   "writer's bytes\n");
      ok = false;
    } else {
      std::printf("# identity: rand n=%u m=%llu out-of-core — "
                  "byte-identical to the in-memory writer\n",
                  static_cast<unsigned>(n),
                  static_cast<unsigned long long>(m));
    }
    std::remove(reference_path.c_str());
  }

  // Small multi-run case: tiny sort buffer + fan-in 2 forces hundreds of
  // runs and several merge passes.
  {
    const NodeId small_n = 20000;
    const uint64_t small_m = 120000;
    const auto reference =
        MakeUniformRandomMultigraph(small_n, small_m, env.seed + 1);
    if (!reference.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    storage::IngestOptions stressed;
    stressed.sort_buffer_entries = 4096;
    stressed.merge_fan_in = 2;
    RandomEdgeSource source(small_n, small_m, env.seed + 1);
    if (!ByteIdentityCase(source, *reference, stressed,
                          "rand multi-run (fan-in 2)")) {
      ok = false;
    }
  }

  // Scale-free BA graph through the adapter: skewed degrees, a hub row
  // spanning many sort chunks.
  {
    Rng rng(env.seed + 2);
    const auto ba = MakeBarabasiAlbert(30000, 6, rng);
    if (!ba.ok()) {
      std::fprintf(stderr, "error: %s\n", ba.status().ToString().c_str());
      return 1;
    }
    GraphEdgeSource source(&*ba);
    storage::IngestOptions stressed;
    stressed.sort_buffer_entries = 1 << 15;
    if (!ByteIdentityCase(source, *ba, stressed, "ba adapter")) ok = false;
  }

  // --- throughput (reported, not gated) ------------------------------------
  const double edges_per_second =
      big_stats.total_seconds > 0
          ? static_cast<double>(big_stats.input_edges) /
                big_stats.total_seconds
          : 0.0;

  TablePrinter table({"phase", "seconds", "runs", "merge_passes",
                      "edges_per_s"});
  table.AddComment(StrFormat(
      "Streaming ingest: rand n=%u m=%llu (%llu unique) -> %llu-byte "
      "snapshot, budget %llu MiB + %llu MiB slack, AS cap %llu",
      static_cast<unsigned>(n), static_cast<unsigned long long>(m),
      static_cast<unsigned long long>(big_stats.num_edges),
      static_cast<unsigned long long>(snapshot_bytes),
      static_cast<unsigned long long>(kBudgetBytes >> 20),
      static_cast<unsigned long long>(kSlackBytes >> 20),
      static_cast<unsigned long long>(as_cap)));
  table.AddRow({TablePrinter::Cell("sort+spill"),
                TablePrinter::CellPrec(big_stats.run_seconds, 3),
                TablePrinter::Cell(big_stats.sorted_runs),
                TablePrinter::Cell(uint64_t{0}), TablePrinter::Cell("-")});
  table.AddRow({TablePrinter::Cell("merge"),
                TablePrinter::CellPrec(big_stats.merge_seconds, 3),
                TablePrinter::Cell("-"),
                TablePrinter::Cell(big_stats.merge_passes),
                TablePrinter::Cell("-")});
  table.AddRow({TablePrinter::Cell("emit"),
                TablePrinter::CellPrec(big_stats.emit_seconds, 3),
                TablePrinter::Cell("-"), TablePrinter::Cell("-"),
                TablePrinter::Cell("-")});
  table.AddRow({TablePrinter::Cell("total"),
                TablePrinter::CellPrec(big_stats.total_seconds, 3),
                TablePrinter::Cell(big_stats.sorted_runs),
                TablePrinter::Cell(big_stats.merge_passes),
                TablePrinter::CellPrec(edges_per_second, 0)});
  table.Print(stdout);

  std::remove(big_path.c_str());

  if (!ok) return 1;
  std::printf(
      "# GATE OK: %llu-byte snapshot built under a %llu-byte budget "
      "(peak RSS delta %llu), byte-identical to the in-memory writer "
      "(%.0f edges/s)\n",
      static_cast<unsigned long long>(snapshot_bytes),
      static_cast<unsigned long long>(kBudgetBytes),
      static_cast<unsigned long long>(rss_delta), edges_per_second);
  return 0;
}

}  // namespace

int main() { return Run(); }
