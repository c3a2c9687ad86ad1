// Streaming out-of-core snapshot ingestion: an external-sort edge pipeline
// that turns an EdgeSource of arbitrary size into a graph snapshot file
// with peak memory bounded by a fixed budget — the CSR is never resident.
//
// Pipeline (docs/STORAGE.md has the full walkthrough):
//
//   1. Run formation. Edges stream in bounded batches; each undirected edge
//      is packed as both directed orientations (u<<32 | v), accumulated in
//      a fixed-size sort buffer, radix-sorted (SortEdgeKeys,
//      graph/edge_sort.h), deduplicated, and spilled to a temp run file
//      when the buffer fills. An input that never fills the buffer is one
//      run that stays in memory: no run file is written or read back.
//   2. Merge reduction. While more runs exist than the merge fan-in, runs
//      are k-way merged (with dedup) into longer runs, a batch at a time.
//   3. Finalization, two sequential passes over the final run(s) each —
//      the in-memory run as it is, or one last k-way merge of the files:
//      pass A counts — node count, adjacency length, unique edge count,
//      degree extremes — and spills the offsets array to a temp file as
//      rows close; pass B then knows the complete file layout and streams
//      section table, meta, offsets, and adjacency straight into a
//      StreamingSnapshotWriter (checksummed incrementally, written to
//      `<path>.tmp`, atomically renamed).
//
// The output is byte-identical to WriteGraphSnapshot(BuildGraphFromEdgeSource(
// source)) on the same stream: same normalization (u<=v swap, optional
// self-loop drop, duplicate collapse), same section order, same checksum.
// Peak RSS is O(memory budget), independent of edge count; temp files live
// in options.temp_dir ($TMPDIR, then the output directory, when unset) and
// are removed on every exit path.
#pragma once

#include <cstdint>
#include <string>

#include "graph/io.h"
#include "util/status.h"

namespace wnw::storage {

struct IngestOptions {
  /// Total working memory of the pipeline. In phase 1 the sort buffer and
  /// the radix sort's scratch take half each (budget / 16 packed entries a
  /// run); the merge read/write buffers later share the whole budget, next
  /// to the buffer when it still holds the input as one in-memory run.
  /// Must be at least 256 KiB: below that the sort buffer cannot hold a
  /// useful chunk and the request is refused with InvalidArgument instead
  /// of thrashing.
  uint64_t memory_budget_bytes = 64ull << 20;

  /// Maximum runs merged at once. Values below 2 are clamped to 2 (a 1-way
  /// "merge" would never reduce the run count).
  int merge_fan_in = 64;

  /// Mirrors GraphBuilder: self-loops are dropped unless set (a kept
  /// self-loop contributes one adjacency entry and one edge).
  bool allow_self_loops = false;

  /// Directory for run/offset temp files. Empty means $TMPDIR, then the
  /// output file's directory.
  std::string temp_dir;

  /// Node-count floor in addition to the source's own min_num_nodes()
  /// (isolated trailing nodes cannot be observed from edges alone).
  NodeId min_num_nodes = 0;

  /// Test hook: exact sort-buffer capacity in packed entries (two per
  /// undirected edge), i.e. the longest run, overriding the budget-derived
  /// size; the sort's scratch matches it. 0 means derive from
  /// memory_budget_bytes. Values below 2 are InvalidArgument.
  uint64_t sort_buffer_entries = 0;
};

struct IngestStats {
  uint64_t input_edges = 0;         // edges pulled from the source
  uint64_t dropped_self_loops = 0;  // u == v inputs dropped (policy above)
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;          // unique undirected edges in the output
  uint64_t adjacency_entries = 0;  // CSR endpoints written
  uint64_t sorted_runs = 0;        // runs formed in phase 1, in memory or not
  uint64_t merge_passes = 0;       // intermediate batch merges in phase 2
  uint64_t sort_buffer_entries = 0;  // resolved capacity actually used
  double run_seconds = 0;    // phase 1: read + sort + spill
  double merge_seconds = 0;  // phase 2: intermediate merges
  double emit_seconds = 0;   // phase 3: count pass + emit pass
  double total_seconds = 0;
};

/// Drains `source` through the external-sort pipeline into a graph snapshot
/// at `path`. On success the file at `path` is complete and identical to
/// the in-memory writer's output; on failure `path` is untouched and all
/// temp files are removed.
Result<IngestStats> StreamGraphSnapshot(EdgeSource& source,
                                        const std::string& path,
                                        const IngestOptions& options = {});

}  // namespace wnw::storage
