// Residency management for mmap'd snapshot sections: the piece that turns
// "a graph larger than RAM can be *stored*" into "it can be *served*".
//
// The block-scheduled walk engine (src/engine/) steps every pending walker
// of one block before moving on, so its page-access pattern is
// block-sequential, not uniformly random. ResidencyManager exploits that:
// the engine prefetches the next scheduled blocks (madvise(MADV_WILLNEED) +
// a page-touch sweep on a background thread) while the current block is
// being stepped, and releases cold blocks (madvise(MADV_DONTNEED)) to keep
// tracked residency under a configurable byte budget. All of it is kernel
// *advice* over a read-only file mapping — it can change wall-clock and
// resident-set size, never bytes served — which is exactly what makes the
// byte-identity CI gates on `residency_mb` sound.
//
// MADV_DONTNEED is safe here only because snapshot sections are read-only
// MAP_PRIVATE *file* mappings: dropped pages refault from the file. On
// anonymous (heap) memory the same call would zero live data, so the engine
// enables residency management only when Graph::storage_mapped() is true.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/status.h"

namespace wnw::storage {

/// The syscall seam under ResidencyManager. Production uses SystemPager()
/// (madvise/mincore); tests inject a fake so paging is deterministic and
/// call ordering is observable.
class Pager {
 public:
  virtual ~Pager() = default;

  /// Start bringing [data, data+size) into memory: MADV_WILLNEED read-ahead
  /// plus a one-byte-per-page touch so the page-table entries are populated
  /// before a walker arrives (WILLNEED alone schedules I/O but leaves the
  /// first access to fault). Called off the hot path.
  virtual void WillNeed(const std::byte* data, size_t size) = 0;

  /// Drop [data, data+size): MADV_DONTNEED unmaps the pages and makes them
  /// immediately reclaimable. Only ever called on read-only file-backed
  /// spans (see file comment).
  virtual void DontNeed(const std::byte* data, size_t size) = 0;

  /// Bytes of [data, data+size) the kernel currently holds (mincore over
  /// the span's pages). Telemetry, not accounting: for file mappings this
  /// reports page-cache presence, which can exceed what DontNeed dropped
  /// from our page tables.
  virtual uint64_t ResidentBytes(const std::byte* data, size_t size) = 0;
};

/// The real pager: madvise/mincore, page-aligning internally. Stateless,
/// process-wide. No-ops (and 0) on platforms without mmap.
Pager& SystemPager();

/// One block's page-aligned byte span within a mapped section.
struct BlockSpan {
  const std::byte* data = nullptr;
  size_t size = 0;
};

/// Derives each block's page-aligned adjacency byte span from the CSR
/// offsets: block b covers nodes [b*block_nodes, min(n, (b+1)*block_nodes)),
/// and its span is adjacency bytes [offsets[lo]*elem_bytes,
/// offsets[hi]*elem_bytes) widened to page bounds. Spans of adjacent blocks
/// may share a boundary page; releasing one refaults the neighbor's edge
/// page, which is advice-level noise, not an error. `page_size` 0 means the
/// system page size; tests pass a small power of two for determinism.
/// `wnw_snapshot --describe` prints this table for budget tuning.
std::vector<BlockSpan> BuildBlockSpans(std::span<const uint64_t> offsets,
                                       std::span<const std::byte> adjacency,
                                       size_t elem_bytes, uint32_t block_nodes,
                                       size_t page_size = 0);

/// Tracks which blocks of a mapped graph are charged against a resident-byte
/// budget, prefetches scheduled blocks on a background thread, and evicts
/// least-recently-used unpinned blocks when admitting a new one would exceed
/// the budget. Thread-safe. The mapping must outlive the manager.
///
/// Accounting model: a block is *charged* from the moment it is admitted
/// (Prefetch or Pin) until it is released or evicted. charged_bytes() is the
/// manager's own view and is what the budget bounds; ResidentBytes() asks
/// the kernel. Pinned blocks (the block a worker is stepping) are never
/// evicted — if the pinned set alone exceeds the budget the admission is
/// forced and counted in Stats::budget_overruns rather than deadlocking.
class ResidencyManager {
 public:
  struct Options {
    /// Eviction threshold for charged bytes. 0 = unbudgeted: prefetch still
    /// runs, nothing is ever evicted.
    uint64_t budget_bytes = 0;
    /// null = SystemPager().
    Pager* pager = nullptr;
  };

  struct Stats {
    uint64_t prefetches = 0;       // WillNeed jobs enqueued
    uint64_t releases = 0;         // DontNeed drops (evictions + explicit)
    uint64_t evictions = 0;        // the budget-driven subset of releases
    uint64_t cancels = 0;          // queued prefetches released before running
    uint64_t peak_charged = 0;     // high-water mark of charged bytes
    uint64_t budget_overruns = 0;  // forced admissions past the budget
  };

  ResidencyManager(std::vector<BlockSpan> spans, const Options& options);
  ~ResidencyManager();
  ResidencyManager(const ResidencyManager&) = delete;
  ResidencyManager& operator=(const ResidencyManager&) = delete;

  /// Starts the background thread that runs queued WillNeed jobs; until
  /// then they wait for Drain() (the deterministic mode tests use). A
  /// thread that cannot be spawned is ResourceExhausted. Call it once,
  /// before sharing the manager.
  Status StartPrefetcher();

  size_t num_blocks() const { return spans_.size(); }

  /// Admit `block` (evicting LRU unpinned blocks if over budget) and queue
  /// its span for WillNeed. Already-admitted blocks just refresh their LRU
  /// position. Out-of-range blocks are ignored.
  void Prefetch(size_t block);

  /// Admit `block` if it is not already charged and protect it from
  /// eviction until the matching Unpin. Pins nest.
  void Pin(size_t block);
  void Unpin(size_t block);

  /// Drop `block` now: DontNeed its span and uncharge it. Releasing a block
  /// that is not charged (including a second release) is a no-op; releasing
  /// one whose prefetch has not run yet cancels the queued job without any
  /// pager call; pinned blocks are not releasable.
  void Release(size_t block);

  /// Runs all queued WillNeed jobs on the calling thread (with no
  /// prefetcher started; also used by tests to make prefetch completion
  /// deterministic).
  void Drain();

  uint64_t budget_bytes() const { return budget_; }
  uint64_t charged_bytes() const;

  /// Kernel-reported resident bytes over the union of all block spans.
  uint64_t ResidentBytes() const;

  Stats stats() const;

 private:
  enum class State : uint8_t { kOut, kQueued, kIn };

  void EnsureBudgetLocked(uint64_t incoming);
  void ReleaseLocked(size_t block, bool eviction);
  void AdmitLocked(size_t block);
  void TouchLocked(size_t block) { lru_tick_[block] = ++tick_; }
  void WorkerLoop();
  bool DrainOneLocked(std::unique_lock<std::mutex>& lock);

  const std::vector<BlockSpan> spans_;
  const uint64_t budget_;
  Pager& pager_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<State> state_;
  std::vector<uint32_t> pinned_;
  std::vector<uint64_t> lru_tick_;
  std::deque<size_t> queue_;
  uint64_t tick_ = 0;
  uint64_t charged_ = 0;
  Stats stats_;
  bool stop_ = false;

  std::thread worker_;  // only after StartPrefetcher()
};

/// This process's resident-set size in bytes (/proc/self/statm × page size)
/// — the sampled measurement behind SessionStats.engine_resident_peak.
/// Returns 0 where unavailable.
uint64_t ProcessResidentBytes();

}  // namespace wnw::storage
