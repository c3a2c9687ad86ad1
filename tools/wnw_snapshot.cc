// wnw_snapshot: builds, inspects, and verifies mmap-able graph snapshot
// files (the storage/snapshot.h container) from SNAP edge lists or the
// built-in synthetic datasets.
//
// Usage:
//   wnw_snapshot --input edges.txt [--lcc] --output graph.snap
//                [--shards N] [--partition hash|range|degree]
//   wnw_snapshot --dataset SPEC [--seed S] [--scale X] --output graph.snap
//                [--shards N] [...]
//   wnw_snapshot --stream [--mem-budget-mb MB] [--temp-dir DIR] ...
//   wnw_snapshot --describe graph.snap
//
// Examples:
//   wnw_snapshot --input soc-Epinions1.txt --lcc --output epinions.snap
//   wnw_snapshot --dataset small --output small.snap --shards 4 \
//                --partition degree
//   wnw_snapshot --stream --mem-budget-mb 64 --dataset rand:10000000,80000000 \
//                --output huge.snap
//   wnw_sample --dataset small --spec "we:mhrw?snapshot=small.snap"
//
// --dataset SPEC is the one dataset grammar every tool reads
// (ParseDatasetSpec in datasets/social_datasets.h; README.md, "The CLI").
//
// --lcc keeps only the largest connected component (what wnw_sample does to
// --graph inputs, so snapshots built with it serve identical topologies).
// With --input, the source file's node ids are preserved in the snapshot's
// original-id table. With --shards, per-shard CSR sections are written too,
// so a sharded origin serves each shard straight from the mapping.
//
// --stream routes construction through storage::StreamingIngest (external
// sort, bounded peak RSS — docs/STORAGE.md): the CSR is never resident, so
// the graph may be far larger than memory. The output is byte-identical to
// the in-memory path for the same source. Incompatible with --lcc and
// --shards, which need the whole graph in memory.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "datasets/social_datasets.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/sharded_graph.h"
#include "storage/ingest.h"
#include "storage/residency.h"
#include "storage/snapshot.h"
#include "util/string_util.h"

namespace {

using namespace wnw;

struct Args {
  std::string input_path;
  std::optional<DatasetSpec> dataset;
  std::string output;
  std::string describe;
  uint64_t seed = 20260611;
  double scale = kDefaultDatasetScale;
  uint64_t shards = 0;
  std::string partition = "hash";
  bool lcc = false;
  bool stream = false;
  uint64_t mem_budget_mb = 64;
  std::string temp_dir;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: wnw_snapshot --input FILE [--lcc] --output SNAP\n"
      "                    [--shards N] [--partition hash|range|degree]\n"
      "       wnw_snapshot --dataset SPEC [--seed S] [--scale X] --output "
      "SNAP [...]\n"
      "       wnw_snapshot --stream [--mem-budget-mb MB] [--temp-dir DIR] "
      "...\n"
      "       wnw_snapshot --describe SNAP\n"
      "dataset SPEC: %s (every tool's grammar; README.md, The CLI)\n"
      "format reference: docs/STORAGE.md\n",
      kDatasetSpecUsage.data());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      args->input_path = v;
    } else if (flag == "--dataset") {
      const char* v = next();
      if (v == nullptr) return false;
      auto dataset = ParseDatasetSpec(v);
      if (!dataset.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     dataset.status().ToString().c_str());
        return false;
      }
      args->dataset = *dataset;
    } else if (flag == "--output") {
      const char* v = next();
      if (v == nullptr) return false;
      args->output = v;
    } else if (flag == "--describe") {
      const char* v = next();
      if (v == nullptr) return false;
      args->describe = v;
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr || !ParseUint64(v, &args->seed)) return false;
    } else if (flag == "--scale") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &args->scale)) return false;
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr || !ParseUint64(v, &args->shards)) return false;
    } else if (flag == "--partition") {
      const char* v = next();
      if (v == nullptr) return false;
      args->partition = v;
    } else if (flag == "--lcc") {
      args->lcc = true;
    } else if (flag == "--stream") {
      args->stream = true;
    } else if (flag == "--mem-budget-mb") {
      const char* v = next();
      if (v == nullptr || !ParseUint64(v, &args->mem_budget_mb)) return false;
    } else if (flag == "--temp-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      args->temp_dir = v;
    } else if (flag == "--help" || flag == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

struct SourceGraph {
  Graph graph;
  std::vector<uint64_t> original_id;  // empty = dense ids are original
};

Result<SourceGraph> LoadSource(const Args& args) {
  if (!args.input_path.empty()) {
    WNW_ASSIGN_OR_RETURN(LoadedGraph loaded, LoadEdgeList(args.input_path));
    if (!args.lcc) {
      return SourceGraph{std::move(loaded.graph),
                         std::move(loaded.original_id)};
    }
    WNW_ASSIGN_OR_RETURN(Subgraph lcc, LargestComponent(loaded.graph));
    // Compose the id maps: new dense id -> kept old dense id -> input id.
    std::vector<uint64_t> original;
    original.reserve(lcc.kept.size());
    for (NodeId old_id : lcc.kept) {
      original.push_back(loaded.original_id[old_id]);
    }
    return SourceGraph{std::move(lcc.graph), std::move(original)};
  }
  // The shared dataset builder: a snapshot of a dataset serves the exact
  // graph a dataset-built session walks for the same seed.
  WNW_ASSIGN_OR_RETURN(Graph graph,
                       BuildDatasetGraph(*args.dataset, args.seed, args.scale));
  return SourceGraph{std::move(graph), {}};
}

// The --stream path: construction through the external-sort ingest
// pipeline. rand:N,M and --input stay fully streaming; the other synthetic
// datasets are built in memory (their generators need global state) and fed
// through the GraphEdgeSource adapter, which still exercises the whole
// pipeline.
int RunStream(const Args& args) {
  storage::IngestOptions options;
  options.memory_budget_bytes = args.mem_budget_mb << 20;
  options.temp_dir = args.temp_dir;

  std::unique_ptr<EdgeSource> streaming_source;
  Graph built;  // backs the adapter for in-memory datasets
  if (!args.input_path.empty()) {
    auto opened = EdgeListFileSource::Open(args.input_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    streaming_source = std::move(opened).value();
  } else if (args.dataset->kind == DatasetSpec::Kind::kUniformRandom) {
    streaming_source = std::make_unique<RandomEdgeSource>(
        args.dataset->nodes, args.dataset->edges, args.seed);
  } else {
    auto source = LoadSource(args);
    if (!source.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   source.status().ToString().c_str());
      return 1;
    }
    built = std::move(source->graph);
    streaming_source = std::make_unique<GraphEdgeSource>(&built);
  }

  auto stats = storage::StreamGraphSnapshot(*streaming_source, args.output,
                                            options);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::fprintf(
      stderr,
      "ingest: %llu input edges -> %llu nodes, %llu edges | %llu runs, "
      "%llu merge passes | %.2fs sort, %.2fs merge, %.2fs emit "
      "(%.0f edges/s)\n",
      static_cast<unsigned long long>(stats->input_edges),
      static_cast<unsigned long long>(stats->num_nodes),
      static_cast<unsigned long long>(stats->num_edges),
      static_cast<unsigned long long>(stats->sorted_runs),
      static_cast<unsigned long long>(stats->merge_passes),
      stats->run_seconds, stats->merge_seconds, stats->emit_seconds,
      stats->total_seconds > 0
          ? static_cast<double>(stats->input_edges) / stats->total_seconds
          : 0.0);
  return 0;
}

int Describe(const std::string& path) {
  auto info = ReadSnapshotInfo(path);
  if (!info.ok()) {
    std::fprintf(stderr, "error: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: valid wnw graph snapshot (checksum OK)\n", path.c_str());
  std::printf("  nodes:        %llu\n",
              static_cast<unsigned long long>(info->num_nodes));
  std::printf("  edges:        %llu\n",
              static_cast<unsigned long long>(info->num_edges));
  std::printf("  degree:       min %u, max %u\n", info->min_degree,
              info->max_degree);
  std::printf("  original ids: %s\n", info->has_original_ids ? "yes" : "no");
  if (info->num_shards > 0) {
    std::printf("  shards:       %d (partition=%s)\n", info->num_shards,
                std::string(ShardPartitionKey(info->partition)).c_str());
  } else {
    std::printf("  shards:       none (flat CSR only)\n");
  }
  std::printf("  sections:     %zu\n", info->sections);
  std::printf("  file size:    %llu bytes\n",
              static_cast<unsigned long long>(info->file_bytes));

  // Paging breakdown for residency-budget tuning (docs/STORAGE.md): how many
  // pages each section spans, and the engine's derived block -> page-span
  // table — the spans a ResidencyManager charges against residency_mb=.
  // ReadSnapshotInfo above already verified the checksum; skip the rescan.
  auto file = storage::SnapshotFile::Open(path, storage::FileKind::kGraphSnapshot,
                                          {.verify_checksum = false});
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }
#if defined(__unix__) || defined(__APPLE__)
  const uint64_t page = static_cast<uint64_t>(
      std::max<long>(1, ::sysconf(_SC_PAGESIZE)));
#else
  const uint64_t page = 4096;
#endif
  std::printf("  page size:    %llu bytes\n",
              static_cast<unsigned long long>(page));
  std::printf("  section pages (kind[index] offset length pages):\n");
  for (const storage::SnapshotFile::Record& r : file->records()) {
    const uint64_t first_page = r.offset / page;
    const uint64_t last_page = (r.offset + std::max<uint64_t>(r.length, 1) - 1) / page;
    std::printf("    %-13s[%u]  %10llu  %10llu  %6llu\n",
                std::string(storage::SectionKindName(r.kind)).c_str(),
                r.index, static_cast<unsigned long long>(r.offset),
                static_cast<unsigned long long>(r.length),
                static_cast<unsigned long long>(last_page - first_page + 1));
  }

  auto offsets =
      file->ArraySection<uint64_t>(storage::SectionKind::kOffsets);
  auto adjacency = file->Section(storage::SectionKind::kAdjacency);
  if (offsets.ok() && adjacency.ok() && offsets->size() >= 2) {
    const uint64_t n = offsets->size() - 1;
    const uint32_t block_nodes =
        std::max<uint32_t>(256, static_cast<uint32_t>(n / 64));
    const auto spans = storage::BuildBlockSpans(
        offsets->span(), adjacency->bytes(), sizeof(NodeId), block_nodes);
    uint64_t max_span = 0;
    for (const storage::BlockSpan& s : spans) {
      max_span = std::max<uint64_t>(max_span, s.size);
    }
    std::printf(
        "  engine blocks: %zu x %u nodes (the engine's default block= "
        "derivation), max span %llu bytes (%llu pages)\n",
        spans.size(), block_nodes, static_cast<unsigned long long>(max_span),
        static_cast<unsigned long long>((max_span + page - 1) / page));
    std::printf("  block page spans (block nodes file_offset bytes pages):\n");
    const std::byte* base = file->file()->data();
    constexpr size_t kMaxRows = 12;
    for (size_t b = 0; b < spans.size() && b < kMaxRows; ++b) {
      const uint64_t lo = b * static_cast<uint64_t>(block_nodes);
      const uint64_t hi = std::min<uint64_t>(n, lo + block_nodes);
      const storage::BlockSpan& s = spans[b];
      std::printf("    %5zu  [%llu, %llu)  %10llu  %10zu  %6llu\n", b,
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(
                      s.data != nullptr ? s.data - base : 0),
                  s.size,
                  static_cast<unsigned long long>((s.size + page - 1) / page));
    }
    if (spans.size() > kMaxRows) {
      std::printf("    ... %zu more blocks (same derivation)\n",
                  spans.size() - kMaxRows);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (!args.describe.empty()) return Describe(args.describe);
  if (args.output.empty() ||
      (args.input_path.empty() && !args.dataset.has_value())) {
    PrintUsage();
    return 2;
  }
  if (!args.input_path.empty() && args.dataset.has_value()) {
    std::fprintf(stderr, "pass --input or --dataset, not both\n");
    return 2;
  }
  if (args.shards > static_cast<uint64_t>(ShardedGraph::kMaxShards)) {
    std::fprintf(stderr, "shards must be in [1, %d]\n",
                 ShardedGraph::kMaxShards);
    return 2;
  }
  if (args.stream) {
    if (args.lcc || args.shards > 0) {
      std::fprintf(stderr,
                   "--stream is incompatible with --lcc and --shards (both "
                   "need the whole graph in memory)\n");
      return 2;
    }
    const int rc = RunStream(args);
    if (rc != 0) return rc;
    return Describe(args.output);
  }

  auto source = LoadSource(args);
  if (!source.ok()) {
    std::fprintf(stderr, "error: %s\n", source.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "graph: %s\n", source->graph.DebugString().c_str());

  SnapshotWriteOptions write_options;
  write_options.original_ids = source->original_id;
  ShardedGraph sharded;
  if (args.shards >= 1) {
    auto partition = ParseShardPartition(args.partition);
    if (!partition.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   partition.status().ToString().c_str());
      return 2;
    }
    auto sharded_or = ShardedGraph::FromGraph(
        source->graph, static_cast<int>(args.shards), *partition);
    if (!sharded_or.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   sharded_or.status().ToString().c_str());
      return 1;
    }
    sharded = *std::move(sharded_or);
    write_options.sharded = &sharded;
    std::fprintf(stderr, "sharded: %s\n", sharded.DebugString().c_str());
  }

  const Status written =
      WriteGraphSnapshot(source->graph, args.output, write_options);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  return Describe(args.output);
}
