#include "storage/ingest.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "graph/edge_sort.h"
#include "storage/snapshot.h"
#include "util/huge_page_arena.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace wnw::storage {
namespace {

// Below this the sort buffer cannot hold a chunk worth sorting; refuse
// instead of generating one run per handful of edges.
constexpr uint64_t kMinBudgetBytes = 256 * 1024;

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

std::string ResolveTempDir(const std::string& configured,
                           const std::string& output_path) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("TMPDIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return DirName(output_path);
}

std::string MakeTempPath(const std::string& dir, const char* tag) {
  static std::atomic<uint64_t> counter{0};
  return StrFormat("%s/wnw_ingest_%d_%llu.%s", dir.c_str(),
                   static_cast<int>(getpid()),
                   static_cast<unsigned long long>(
                       counter.fetch_add(1, std::memory_order_relaxed)),
                   tag);
}

/// Owns one temp file's lifetime: whoever holds the TempFile removes the
/// file on destruction, so every early return cleans the disk up.
class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile() {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  TempFile(TempFile&& other) noexcept
      : path_(std::exchange(other.path_, {})) {}
  TempFile& operator=(TempFile&& other) noexcept {
    if (this != &other) {
      if (!path_.empty()) std::remove(path_.c_str());
      path_ = std::exchange(other.path_, {});
    }
    return *this;
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Buffered writer of raw little-endian u64 values (run files and the
/// spilled offsets array share the format).
class RunWriter {
 public:
  static Result<RunWriter> Create(const std::string& path,
                                  size_t buffer_entries) {
    RunWriter writer;
    writer.path_ = path;
    writer.file_ = std::fopen(path.c_str(), "wb");
    if (writer.file_ == nullptr) {
      return Status::IOError("cannot open temp file " + path);
    }
    writer.buffer_.reserve(buffer_entries);
    return writer;
  }

  RunWriter(RunWriter&& other) noexcept
      : file_(std::exchange(other.file_, nullptr)),
        path_(std::move(other.path_)),
        buffer_(std::move(other.buffer_)) {}
  RunWriter& operator=(RunWriter&&) = delete;
  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  ~RunWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Add(uint64_t value) {
    buffer_.push_back(value);
    if (buffer_.size() == buffer_.capacity()) return Flush();
    return Status::OK();
  }

  Status WriteAll(std::span<const uint64_t> values) {
    WNW_RETURN_IF_ERROR(Flush());
    if (!values.empty() &&
        std::fwrite(values.data(), sizeof(uint64_t), values.size(), file_) !=
            values.size()) {
      return Status::IOError("write failed on temp file " + path_);
    }
    return Status::OK();
  }

  Status Close() {
    WNW_RETURN_IF_ERROR(Flush());
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) {
      return Status::IOError("close failed on temp file " + path_);
    }
    return Status::OK();
  }

 private:
  RunWriter() = default;

  Status Flush() {
    if (buffer_.empty()) return Status::OK();
    if (std::fwrite(buffer_.data(), sizeof(uint64_t), buffer_.size(),
                    file_) != buffer_.size()) {
      return Status::IOError("write failed on temp file " + path_);
    }
    buffer_.clear();
    return Status::OK();
  }

  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<uint64_t> buffer_;
};

/// Buffered reader of raw u64 values. The buffer holds at most
/// `buffer_entries` values and never more than the file does, so a merge of
/// many short runs does not zero-fill a full-size buffer per run.
class RunReader {
 public:
  static Result<RunReader> Open(const std::string& path,
                                size_t buffer_entries) {
    RunReader reader;
    reader.path_ = path;
    reader.file_ = std::fopen(path.c_str(), "rb");
    if (reader.file_ == nullptr) {
      return Status::IOError("cannot reopen temp file " + path);
    }
    struct stat info {};
    if (::fstat(::fileno(reader.file_), &info) != 0) {
      return Status::IOError("cannot stat temp file " + path);
    }
    const size_t file_entries =
        static_cast<size_t>(info.st_size) / sizeof(uint64_t);
    reader.buffer_.resize(
        std::max<size_t>(1, std::min(buffer_entries, file_entries)));
    return reader;
  }

  RunReader(RunReader&& other) noexcept
      : file_(std::exchange(other.file_, nullptr)),
        path_(std::move(other.path_)),
        buffer_(std::move(other.buffer_)),
        pos_(other.pos_),
        len_(other.len_) {}
  RunReader& operator=(RunReader&&) = delete;
  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  ~RunReader() {
    if (file_ != nullptr) std::fclose(file_);
  }

  /// True + *out on success, false on clean end of file.
  Result<bool> Next(uint64_t* out) {
    if (pos_ == len_) {
      len_ = std::fread(buffer_.data(), sizeof(uint64_t), buffer_.size(),
                        file_);
      pos_ = 0;
      if (len_ == 0) {
        if (std::ferror(file_) != 0) {
          return Status::IOError("read failed on temp file " + path_);
        }
        return false;
      }
    }
    *out = buffer_[pos_++];
    return true;
  }

 private:
  RunReader() = default;

  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<uint64_t> buffer_;
  size_t pos_ = 0;
  size_t len_ = 0;
};

/// The final sorted run(s) as one stream of strictly ascending values, a
/// block at a time. With no run files it yields `resident`, the one sorted
/// deduplicated run that never left memory, as a single block. Otherwise it
/// k-way merges the run files with global dedup, one value buffer per run.
class Merger {
 public:
  static Result<Merger> Open(std::span<const TempFile> runs,
                             std::span<const uint64_t> resident,
                             size_t buffer_entries) {
    Merger merger;
    merger.resident_ = resident;
    merger.readers_.reserve(runs.size());
    for (const TempFile& run : runs) {
      WNW_ASSIGN_OR_RETURN(RunReader reader,
                           RunReader::Open(run.path(), buffer_entries));
      merger.readers_.push_back(std::move(reader));
    }
    for (size_t i = 0; i < merger.readers_.size(); ++i) {
      uint64_t value = 0;
      WNW_ASSIGN_OR_RETURN(const bool more, merger.readers_[i].Next(&value));
      if (more) merger.heap_.emplace(value, i);
    }
    if (!runs.empty()) merger.block_.reserve(buffer_entries);
    return merger;
  }

  Merger(Merger&&) noexcept = default;

  /// The next block of distinct values, ascending across blocks; empty when
  /// every run is dry.
  Result<std::span<const uint64_t>> NextBlock() {
    if (!resident_.empty()) return std::exchange(resident_, {});
    block_.clear();
    while (!heap_.empty() && block_.size() < block_.capacity()) {
      const auto [value, idx] = heap_.top();
      heap_.pop();
      uint64_t refill = 0;
      WNW_ASSIGN_OR_RETURN(const bool more, readers_[idx].Next(&refill));
      if (more) heap_.emplace(refill, idx);
      if (!has_last_ || value != last_) {
        has_last_ = true;
        last_ = value;
        block_.push_back(value);
      }
    }
    return std::span<const uint64_t>(block_);
  }

 private:
  Merger() = default;

  std::span<const uint64_t> resident_;
  std::vector<RunReader> readers_;
  std::priority_queue<std::pair<uint64_t, size_t>,
                      std::vector<std::pair<uint64_t, size_t>>,
                      std::greater<>>
      heap_;
  std::vector<uint64_t> block_;
  uint64_t last_ = 0;
  bool has_last_ = false;
};

}  // namespace

Result<IngestStats> StreamGraphSnapshot(EdgeSource& source,
                                        const std::string& path,
                                        const IngestOptions& options) {
  const Timer total_timer;
  IngestStats stats;

  uint64_t sort_entries = 0;
  if (options.sort_buffer_entries > 0) {
    if (options.sort_buffer_entries < 2) {
      return Status::InvalidArgument(StrFormat(
          "sort buffer of %llu entries cannot hold one edge's orientations "
          "(need at least 2)",
          static_cast<unsigned long long>(options.sort_buffer_entries)));
    }
    // Capped so that its byte size cannot wrap; a buffer that large is
    // refused by the mapping (ResourceExhausted).
    sort_entries = std::min<uint64_t>(options.sort_buffer_entries,
                                      SIZE_MAX / sizeof(uint64_t));
  } else {
    if (options.memory_budget_bytes < kMinBudgetBytes) {
      return Status::InvalidArgument(StrFormat(
          "memory budget of %llu bytes is below the %llu-byte minimum — "
          "the sort buffer could not hold a useful chunk",
          static_cast<unsigned long long>(options.memory_budget_bytes),
          static_cast<unsigned long long>(kMinBudgetBytes)));
    }
    // The buffer and the radix sort's scratch, 8 bytes an entry each, share
    // the budget.
    sort_entries = options.memory_budget_bytes / (2 * sizeof(uint64_t));
  }
  stats.sort_buffer_entries = sort_entries;

  const size_t fan_in =
      static_cast<size_t>(std::max(2, options.merge_fan_in));
  const std::string temp_dir = ResolveTempDir(options.temp_dir, path);
  const uint64_t budget = options.sort_buffer_entries > 0
                              ? std::max<uint64_t>(kMinBudgetBytes,
                                                   options.memory_budget_bytes)
                              : options.memory_budget_bytes;

  // Phase 1: run formation. Every undirected edge lands as both directed
  // orientations (a self-loop as one), so the merged stream is exactly the
  // symmetrized CSR content in row-major order. Buffer and scratch are
  // mappings of their own, not heap chunks (see SortEdgeKeys).
  Timer phase_timer;
  std::vector<TempFile> runs;
  WNW_ASSIGN_OR_RETURN(HugePageArena buffer_arena,
                       HugePageArena::Map(sort_entries * sizeof(uint64_t)));
  HugePageArena scratch;
  const std::span<uint64_t> buffer(
      static_cast<uint64_t*>(buffer_arena.data()), sort_entries);
  size_t filled = 0;
  auto sort_buffer = [&]() -> Result<std::span<const uint64_t>> {
    const std::span<uint64_t> run = buffer.first(filled);
    WNW_RETURN_IF_ERROR(SortEdgeKeys(run, &scratch));
    filled = 0;
    return std::span<const uint64_t>(run.begin(),
                                     std::unique(run.begin(), run.end()));
  };
  auto spill = [&]() -> Status {
    if (filled == 0) return Status::OK();
    WNW_ASSIGN_OR_RETURN(const std::span<const uint64_t> run, sort_buffer());
    TempFile file(MakeTempPath(temp_dir, "run"));
    WNW_ASSIGN_OR_RETURN(RunWriter writer,
                         RunWriter::Create(file.path(), /*buffer_entries=*/1));
    WNW_RETURN_IF_ERROR(writer.WriteAll(run));
    WNW_RETURN_IF_ERROR(writer.Close());
    runs.push_back(std::move(file));
    ++stats.sorted_runs;
    return Status::OK();
  };
  auto push = [&](uint64_t key) -> Status {
    if (filled == sort_entries) WNW_RETURN_IF_ERROR(spill());
    buffer[filled++] = key;
    return Status::OK();
  };

  NodeId max_id = 0;
  bool any_endpoint = false;
  InputEdge batch[4096];
  for (;;) {
    WNW_ASSIGN_OR_RETURN(const size_t got, source.Next(batch));
    if (got == 0) break;
    for (size_t i = 0; i < got; ++i) {
      const InputEdge e = batch[i];
      ++stats.input_edges;
      // Node-count bookkeeping mirrors GraphBuilder: EnsureNode runs before
      // the self-loop drop, so a dropped loop still establishes its node.
      max_id = std::max(max_id, std::max(e.u, e.v));
      any_endpoint = true;
      if (e.u == e.v) {
        if (!options.allow_self_loops) {
          ++stats.dropped_self_loops;
          continue;
        }
        WNW_RETURN_IF_ERROR(push(PackEdge(e.u, e.u)));
      } else {
        WNW_RETURN_IF_ERROR(push(PackEdge(e.u, e.v)));
        WNW_RETURN_IF_ERROR(push(PackEdge(e.v, e.u)));
      }
    }
  }
  // An input that never filled the buffer stays there as the one run, and
  // passes A and B read it in place: no run file is written or read back.
  std::span<const uint64_t> resident;
  if (runs.empty() && filled > 0) {
    WNW_ASSIGN_OR_RETURN(resident, sort_buffer());
    ++stats.sorted_runs;
  }
  WNW_RETURN_IF_ERROR(spill());
  // Phases do not overlap; hand the budget over.
  scratch = HugePageArena();
  if (resident.empty()) buffer_arena = HugePageArena();
  stats.run_seconds = phase_timer.ElapsedSeconds();

  // Per-stream buffer sizing for the merge phases: fan_in readers, the
  // merger's output block and one writer (or the offsets spill / adjacency
  // emit buffer) share the budget. A resident run holds at most half of it.
  const size_t merge_buffer_entries = static_cast<size_t>(std::max<uint64_t>(
      512, budget / sizeof(uint64_t) / (fan_in + 2)));

  // Phase 2: merge reduction until one final k-way merge suffices.
  phase_timer.Reset();
  while (runs.size() > fan_in) {
    std::vector<TempFile> merge_batch;
    merge_batch.assign(std::make_move_iterator(runs.begin()),
                       std::make_move_iterator(runs.begin() + fan_in));
    runs.erase(runs.begin(), runs.begin() + fan_in);
    TempFile merged(MakeTempPath(temp_dir, "run"));
    {
      WNW_ASSIGN_OR_RETURN(
          Merger merger,
          Merger::Open(merge_batch, /*resident=*/{}, merge_buffer_entries));
      WNW_ASSIGN_OR_RETURN(
          RunWriter writer,
          RunWriter::Create(merged.path(), /*buffer_entries=*/1));
      for (;;) {
        WNW_ASSIGN_OR_RETURN(const std::span<const uint64_t> block,
                             merger.NextBlock());
        if (block.empty()) break;
        WNW_RETURN_IF_ERROR(writer.WriteAll(block));
      }
      WNW_RETURN_IF_ERROR(writer.Close());
    }
    runs.push_back(std::move(merged));
    ++stats.merge_passes;
    // merge_batch goes out of scope here and deletes the consumed runs.
  }
  stats.merge_seconds = phase_timer.ElapsedSeconds();

  // Phase 3, pass A: one merge sweep to learn the layout — node count,
  // adjacency length, edge count, degree extremes — spilling the offsets
  // array to a temp file as rows close (it is O(n) and must not be
  // resident).
  phase_timer.Reset();
  const NodeId floor_nodes =
      std::max(options.min_num_nodes, source.min_num_nodes());
  const uint64_t num_nodes =
      std::max<uint64_t>(any_endpoint ? uint64_t{max_id} + 1 : 0, floor_nodes);

  TempFile offsets_tmp(MakeTempPath(temp_dir, "off"));
  uint64_t adjacency_entries = 0;
  uint64_t unique_edges = 0;
  uint32_t min_degree = 0;
  uint32_t max_degree = 0;
  {
    WNW_ASSIGN_OR_RETURN(
        RunWriter offsets_writer,
        RunWriter::Create(offsets_tmp.path(), merge_buffer_entries));
    uint64_t rows_written = 0;  // offsets values written so far
    uint64_t last_offset = 0;
    bool any_row = false;
    auto write_offset = [&](uint64_t cumulative) -> Status {
      if (rows_written > 0) {  // offsets[i] closes row i-1
        const uint32_t degree =
            static_cast<uint32_t>(cumulative - last_offset);
        if (!any_row) {
          min_degree = max_degree = degree;
          any_row = true;
        } else {
          min_degree = std::min(min_degree, degree);
          max_degree = std::max(max_degree, degree);
        }
      }
      last_offset = cumulative;
      ++rows_written;
      return offsets_writer.Add(cumulative);
    };
    WNW_RETURN_IF_ERROR(write_offset(0));
    WNW_ASSIGN_OR_RETURN(Merger merger,
                         Merger::Open(runs, resident, merge_buffer_entries));
    for (;;) {
      WNW_ASSIGN_OR_RETURN(const std::span<const uint64_t> block,
                           merger.NextBlock());
      if (block.empty()) break;
      for (const uint64_t key : block) {
        const NodeId row = PackedRow(key);
        while (rows_written <= row) {
          WNW_RETURN_IF_ERROR(write_offset(adjacency_entries));
        }
        ++adjacency_entries;
        if (row <= PackedCol(key)) ++unique_edges;
      }
    }
    while (rows_written <= num_nodes) {
      WNW_RETURN_IF_ERROR(write_offset(adjacency_entries));
    }
    WNW_RETURN_IF_ERROR(offsets_writer.Close());
  }
  stats.num_nodes = num_nodes;
  stats.num_edges = unique_edges;
  stats.adjacency_entries = adjacency_entries;

  // Phase 3, pass B: the layout is fully known, so the final file streams
  // out strictly sequentially — section table, meta, offsets (copied from
  // the spill file), adjacency (re-merged) — through the incremental
  // checksummed writer, then renames into place.
  const std::span<const uint64_t> original_ids = source.original_ids();
  if (!original_ids.empty() && original_ids.size() != num_nodes) {
    return Status::InvalidArgument(
        StrFormat("original-id table has %zu entries for %llu nodes",
                  original_ids.size(),
                  static_cast<unsigned long long>(num_nodes)));
  }

  const GraphMetaSection meta{num_nodes, unique_edges, max_degree,
                              min_degree};
  std::vector<StreamingSnapshotWriter::PlannedSection> plan;
  plan.push_back({SectionKind::kGraphMeta, 0, sizeof(meta)});
  plan.push_back({SectionKind::kOffsets, 0, (num_nodes + 1) * sizeof(uint64_t)});
  plan.push_back(
      {SectionKind::kAdjacency, 0, adjacency_entries * sizeof(NodeId)});
  if (!original_ids.empty()) {
    plan.push_back({SectionKind::kOriginalIds, 0,
                    original_ids.size() * sizeof(uint64_t)});
  }
  WNW_ASSIGN_OR_RETURN(
      StreamingSnapshotWriter writer,
      StreamingSnapshotWriter::Create(FileKind::kGraphSnapshot, path, plan));
  WNW_RETURN_IF_ERROR(writer.Append(
      {reinterpret_cast<const std::byte*>(&meta), sizeof(meta)}));
  {
    WNW_ASSIGN_OR_RETURN(
        RunReader offsets_reader,
        RunReader::Open(offsets_tmp.path(), merge_buffer_entries));
    std::vector<uint64_t> chunk;
    chunk.reserve(merge_buffer_entries);
    uint64_t value = 0;
    for (;;) {
      WNW_ASSIGN_OR_RETURN(const bool more, offsets_reader.Next(&value));
      if (more) chunk.push_back(value);
      if ((!more || chunk.size() == merge_buffer_entries) && !chunk.empty()) {
        WNW_RETURN_IF_ERROR(
            writer.AppendArray(std::span<const uint64_t>(chunk)));
        chunk.clear();
      }
      if (!more) break;
    }
  }
  {
    WNW_ASSIGN_OR_RETURN(Merger merger,
                         Merger::Open(runs, resident, merge_buffer_entries));
    std::vector<NodeId> chunk(merge_buffer_entries);
    for (;;) {
      WNW_ASSIGN_OR_RETURN(std::span<const uint64_t> block,
                           merger.NextBlock());
      if (block.empty()) break;
      while (!block.empty()) {
        const size_t len = std::min(block.size(), chunk.size());
        std::transform(block.begin(), block.begin() + len, chunk.begin(),
                       PackedCol);
        WNW_RETURN_IF_ERROR(writer.AppendArray(
            std::span<const NodeId>(chunk.data(), len)));
        block = block.subspan(len);
      }
    }
  }
  if (!original_ids.empty()) {
    WNW_RETURN_IF_ERROR(writer.AppendArray(original_ids));
  }
  WNW_RETURN_IF_ERROR(writer.Finish());
  stats.emit_seconds = phase_timer.ElapsedSeconds();
  stats.total_seconds = total_timer.ElapsedSeconds();
  return stats;
}

}  // namespace wnw::storage
