#include "storage/residency.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "util/thread.h"

#if defined(__unix__) || defined(__APPLE__)
#define WNW_RESIDENCY_HAVE_MM 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define WNW_RESIDENCY_HAVE_MM 0
#endif

namespace wnw::storage {

namespace {

size_t SystemPageSize() {
#if WNW_RESIDENCY_HAVE_MM
  const long page = ::sysconf(_SC_PAGESIZE);
  return page > 0 ? static_cast<size_t>(page) : 4096;
#else
  return 4096;
#endif
}

#if WNW_RESIDENCY_HAVE_MM
// Widens [data, data+size) to page bounds — required by madvise/mincore,
// and safe for our callers because the spans live inside one mapping whose
// pages cover the widened range.
std::pair<unsigned char*, size_t> PageAlignSpan(const std::byte* data,
                                                size_t size) {
  const uintptr_t page = static_cast<uintptr_t>(SystemPageSize());
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data) & ~(page - 1);
  const uintptr_t end =
      (reinterpret_cast<uintptr_t>(data) + size + page - 1) & ~(page - 1);
  return {reinterpret_cast<unsigned char*>(begin), end - begin};
}
#endif

class SystemPagerImpl final : public Pager {
 public:
  void WillNeed(const std::byte* data, size_t size) override {
#if WNW_RESIDENCY_HAVE_MM
    if (size == 0) return;
    auto [begin, length] = PageAlignSpan(data, size);
#if defined(MADV_WILLNEED)
    (void)::madvise(begin, length, MADV_WILLNEED);
#endif
    // WILLNEED schedules read-ahead but leaves the page-table entries
    // unpopulated, so the first access would still fault. Touch one byte
    // per page to take those faults here — on the prefetch thread — instead
    // of inside a walker step.
    const volatile unsigned char* pages = begin;
    const size_t page = SystemPageSize();
    unsigned char sink = 0;
    for (size_t i = 0; i < length; i += page) sink ^= pages[i];
    (void)sink;
#else
    (void)data;
    (void)size;
#endif
  }

  void DontNeed(const std::byte* data, size_t size) override {
#if WNW_RESIDENCY_HAVE_MM && defined(MADV_DONTNEED)
    if (size == 0) return;
    auto [begin, length] = PageAlignSpan(data, size);
    (void)::madvise(begin, length, MADV_DONTNEED);
#else
    (void)data;
    (void)size;
#endif
  }

  uint64_t ResidentBytes(const std::byte* data, size_t size) override {
#if WNW_RESIDENCY_HAVE_MM
    if (size == 0) return 0;
    auto [begin, length] = PageAlignSpan(data, size);
    const size_t page = SystemPageSize();
    constexpr size_t kChunkPages = 4096;
#if defined(__APPLE__)
    char vec[kChunkPages];
#else
    unsigned char vec[kChunkPages];
#endif
    uint64_t resident = 0;
    for (size_t done = 0; done < length;) {
      const size_t bytes = std::min(length - done, kChunkPages * page);
      if (::mincore(begin + done, bytes, vec) != 0) break;
      const size_t pages = (bytes + page - 1) / page;
      for (size_t i = 0; i < pages; ++i) {
        if (vec[i] & 1) resident += page;
      }
      done += bytes;
    }
    return resident;
#else
    (void)data;
    (void)size;
    return 0;
#endif
  }
};

}  // namespace

Pager& SystemPager() {
  static SystemPagerImpl pager;
  return pager;
}

std::vector<BlockSpan> BuildBlockSpans(std::span<const uint64_t> offsets,
                                       std::span<const std::byte> adjacency,
                                       size_t elem_bytes, uint32_t block_nodes,
                                       size_t page_size) {
  std::vector<BlockSpan> spans;
  if (offsets.size() < 2 || elem_bytes == 0 || block_nodes == 0) return spans;
  if (page_size == 0) page_size = SystemPageSize();
  const size_t n = offsets.size() - 1;
  const size_t blocks = (n + block_nodes - 1) / block_nodes;
  const uintptr_t region_begin = reinterpret_cast<uintptr_t>(adjacency.data());
  spans.reserve(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t lo = b * static_cast<size_t>(block_nodes);
    const size_t hi = std::min(n, lo + block_nodes);
    const uint64_t begin_byte =
        std::min<uint64_t>(offsets[lo] * elem_bytes, adjacency.size());
    const uint64_t end_byte =
        std::min<uint64_t>(offsets[hi] * elem_bytes, adjacency.size());
    if (end_byte <= begin_byte) {
      spans.push_back(BlockSpan{});  // no edges in this block
      continue;
    }
    const uintptr_t begin =
        (region_begin + begin_byte) & ~static_cast<uintptr_t>(page_size - 1);
    const uintptr_t end = (region_begin + end_byte + page_size - 1) &
                          ~static_cast<uintptr_t>(page_size - 1);
    spans.push_back(BlockSpan{reinterpret_cast<const std::byte*>(begin),
                              static_cast<size_t>(end - begin)});
  }
  return spans;
}

ResidencyManager::ResidencyManager(std::vector<BlockSpan> spans,
                                   const Options& options)
    : spans_(std::move(spans)),
      budget_(options.budget_bytes),
      pager_(options.pager != nullptr ? *options.pager : SystemPager()),
      state_(spans_.size(), State::kOut),
      pinned_(spans_.size(), 0),
      lru_tick_(spans_.size(), 0) {}

Status ResidencyManager::StartPrefetcher() {
  if (spans_.empty()) return Status::OK();
  WNW_ASSIGN_OR_RETURN(
      worker_,
      StartThread("residency manager: cannot start its prefetcher thread",
                  [this] { WorkerLoop(); }));
  return Status::OK();
}

ResidencyManager::~ResidencyManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void ResidencyManager::Prefetch(size_t block) {
  if (block >= spans_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_[block] != State::kOut) {
    TouchLocked(block);
    return;
  }
  AdmitLocked(block);
  state_[block] = State::kQueued;
  ++stats_.prefetches;
  queue_.push_back(block);
  cv_.notify_one();
}

void ResidencyManager::Pin(size_t block) {
  if (block >= spans_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_[block] == State::kOut) {
    // Admitted without a prefetch: the pages fault in on demand while the
    // worker steps, but they are charged and eviction-protected like any
    // other admission.
    AdmitLocked(block);
    state_[block] = State::kIn;
  } else {
    TouchLocked(block);
  }
  ++pinned_[block];
}

void ResidencyManager::Unpin(size_t block) {
  if (block >= spans_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (pinned_[block] > 0) --pinned_[block];
}

void ResidencyManager::Release(size_t block) {
  if (block >= spans_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ReleaseLocked(block, /*eviction=*/false);
}

void ResidencyManager::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (DrainOneLocked(lock)) {
  }
}

uint64_t ResidencyManager::charged_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charged_;
}

uint64_t ResidencyManager::ResidentBytes() const {
  // The spans tile one contiguous adjacency region (possibly sharing
  // boundary pages), so measure their union instead of summing per-span,
  // which would double-count shared pages.
  const std::byte* begin = nullptr;
  const std::byte* end = nullptr;
  for (const BlockSpan& span : spans_) {
    if (span.size == 0) continue;
    if (begin == nullptr || span.data < begin) begin = span.data;
    if (end == nullptr || span.data + span.size > end) {
      end = span.data + span.size;
    }
  }
  if (begin == nullptr) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return pager_.ResidentBytes(begin, static_cast<size_t>(end - begin));
}

ResidencyManager::Stats ResidencyManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ResidencyManager::AdmitLocked(size_t block) {
  EnsureBudgetLocked(spans_[block].size);
  charged_ += spans_[block].size;
  stats_.peak_charged = std::max(stats_.peak_charged, charged_);
  TouchLocked(block);
}

void ResidencyManager::EnsureBudgetLocked(uint64_t incoming) {
  if (budget_ == 0) return;
  while (charged_ + incoming > budget_) {
    size_t victim = spans_.size();
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (size_t b = 0; b < spans_.size(); ++b) {
      if (state_[b] == State::kOut || pinned_[b] > 0) continue;
      if (lru_tick_[b] < oldest) {
        oldest = lru_tick_[b];
        victim = b;
      }
    }
    if (victim == spans_.size()) {
      // Everything charged is pinned: admit anyway rather than deadlock a
      // worker on its own block, and record that the budget was too small
      // for the pinned working set.
      ++stats_.budget_overruns;
      return;
    }
    ReleaseLocked(victim, /*eviction=*/true);
  }
}

void ResidencyManager::ReleaseLocked(size_t block, bool eviction) {
  if (state_[block] == State::kOut || pinned_[block] > 0) return;
  charged_ -= spans_[block].size;
  if (state_[block] == State::kQueued) {
    // The WillNeed has not run (or is mid-flight on the worker): cancel the
    // job instead of advising out pages that were never advised in. The
    // worker skips entries whose state left kQueued.
    state_[block] = State::kOut;
    ++stats_.cancels;
    return;
  }
  state_[block] = State::kOut;
  ++stats_.releases;
  if (eviction) ++stats_.evictions;
  const BlockSpan span = spans_[block];
  if (span.size > 0) pager_.DontNeed(span.data, span.size);
}

void ResidencyManager::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;  // remaining entries are advice nobody needs anymore
    (void)DrainOneLocked(lock);
  }
}

bool ResidencyManager::DrainOneLocked(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) return false;
  const size_t block = queue_.front();
  queue_.pop_front();
  if (state_[block] != State::kQueued) return true;  // canceled
  const BlockSpan span = spans_[block];
  lock.unlock();
  if (span.size > 0) pager_.WillNeed(span.data, span.size);
  lock.lock();
  // Unless a release raced with the advice (then the charge is already gone
  // and the pages are the kernel's to reclaim).
  if (state_[block] == State::kQueued) state_[block] = State::kIn;
  return true;
}

uint64_t ProcessResidentBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "re");
  if (f == nullptr) return 0;
  unsigned long long vm_pages = 0;
  unsigned long long rss_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return rss_pages * static_cast<uint64_t>(SystemPageSize());
#else
  return 0;
#endif
}

}  // namespace wnw::storage
