// ResidencyManager contract tests with an injected fake pager: every
// madvise-shaped decision (prefetch ordering, budget eviction, pin
// protection, release edge cases) is observable and deterministic —
// with no prefetcher started, WillNeed jobs queue until Drain().
#include "storage/residency.h"

#include <array>
#include <cstddef>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

namespace wnw::storage {
namespace {

struct PagerCall {
  char op;  // 'W' = WillNeed, 'D' = DontNeed
  const std::byte* data;
  size_t size;

  bool operator==(const PagerCall&) const = default;
};

// The manager drops its lock around pager calls, so a background worker and
// a draining caller can advise concurrently — the fake must take its own.
class FakePager final : public Pager {
 public:
  void WillNeed(const std::byte* data, size_t size) override {
    std::lock_guard<std::mutex> lock(mu);
    calls.push_back({'W', data, size});
  }
  void DontNeed(const std::byte* data, size_t size) override {
    std::lock_guard<std::mutex> lock(mu);
    calls.push_back({'D', data, size});
  }
  uint64_t ResidentBytes(const std::byte* data, size_t size) override {
    (void)data;
    return size;  // report every page "in", so callers see the query span
  }

  size_t Count(char op) const {
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (const PagerCall& c : calls) {
      if (c.op == op) ++n;
    }
    return n;
  }

  mutable std::mutex mu;
  std::vector<PagerCall> calls;
};

// A page-aligned fake arena: spans of 32 "bytes" (two 16-byte fake pages).
alignas(64) std::byte g_arena[256];

constexpr size_t kSpan = 32;

std::vector<BlockSpan> MakeSpans(size_t blocks) {
  std::vector<BlockSpan> spans;
  for (size_t b = 0; b < blocks; ++b) {
    spans.push_back(BlockSpan{g_arena + b * kSpan, kSpan});
  }
  return spans;
}

ResidencyManager::Options TestOptions(FakePager* pager,
                                      uint64_t budget = 0) {
  ResidencyManager::Options options;
  options.budget_bytes = budget;  // no prefetcher: jobs run at Drain()
  options.pager = pager;
  return options;
}

TEST(BuildBlockSpans, ComputesPageAlignedSpansFromOffsets) {
  // 5 nodes in blocks of 2, 4-byte elements, 16-byte fake pages.
  const std::vector<uint64_t> offsets = {0, 2, 4, 4, 7, 9};
  alignas(16) std::array<std::byte, 48> adjacency{};
  const auto spans =
      BuildBlockSpans(offsets, {adjacency.data(), 36}, 4, 2, 16);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].data, adjacency.data());  // bytes [0,16) of [0,16)
  EXPECT_EQ(spans[0].size, 16u);
  EXPECT_EQ(spans[1].data, adjacency.data() + 16);  // bytes [16,28) widen
  EXPECT_EQ(spans[1].size, 16u);
  EXPECT_EQ(spans[2].data, adjacency.data() + 16);  // bytes [28,36) widen
  EXPECT_EQ(spans[2].size, 32u);
}

TEST(BuildBlockSpans, EdgelessBlocksGetEmptySpans) {
  const std::vector<uint64_t> offsets = {0, 0, 0, 5};
  alignas(16) std::array<std::byte, 32> adjacency{};
  const auto spans =
      BuildBlockSpans(offsets, {adjacency.data(), 20}, 4, 1, 16);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].size, 0u);
  EXPECT_EQ(spans[1].size, 0u);
  EXPECT_EQ(spans[2].size, 32u);  // bytes [0,20) widened to [0,32)
}

TEST(BuildBlockSpans, DegenerateInputsYieldNoSpans) {
  EXPECT_TRUE(BuildBlockSpans({}, {}, 4, 2, 16).empty());
  const std::vector<uint64_t> one = {0};
  EXPECT_TRUE(BuildBlockSpans(one, {}, 4, 2, 16).empty());
}

TEST(ResidencyManager, PrefetchQueuesUntilDrainInOrder) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(3), TestOptions(&pager));
  manager.Prefetch(2);
  manager.Prefetch(0);
  EXPECT_TRUE(pager.calls.empty());  // advice is queued, not issued
  EXPECT_EQ(manager.charged_bytes(), 2 * kSpan);  // but charged on admit
  manager.Drain();
  ASSERT_EQ(pager.calls.size(), 2u);
  EXPECT_EQ(pager.calls[0], (PagerCall{'W', g_arena + 2 * kSpan, kSpan}));
  EXPECT_EQ(pager.calls[1], (PagerCall{'W', g_arena, kSpan}));
  EXPECT_EQ(manager.stats().prefetches, 2u);
}

TEST(ResidencyManager, RepeatPrefetchOfAdmittedBlockIsIdempotent) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(2), TestOptions(&pager));
  manager.Prefetch(1);
  manager.Drain();
  manager.Prefetch(1);  // already in: refreshes LRU only
  manager.Drain();
  EXPECT_EQ(pager.Count('W'), 1u);
  EXPECT_EQ(manager.charged_bytes(), kSpan);
  EXPECT_EQ(manager.stats().prefetches, 1u);
}

TEST(ResidencyManager, BudgetNeverExceededAndEvictsLru) {
  FakePager pager;
  // Budget fits exactly two spans.
  ResidencyManager manager(MakeSpans(4), TestOptions(&pager, 2 * kSpan));
  manager.Prefetch(0);
  manager.Drain();
  manager.Prefetch(1);
  manager.Drain();
  EXPECT_LE(manager.charged_bytes(), 2 * kSpan);
  manager.Prefetch(2);  // over budget: block 0 is LRU, must go
  manager.Drain();
  EXPECT_LE(manager.charged_bytes(), 2 * kSpan);
  ASSERT_EQ(pager.Count('D'), 1u);
  EXPECT_EQ(pager.calls[2], (PagerCall{'D', g_arena, kSpan}));
  manager.Prefetch(1);  // touch 1: now 2 is LRU
  manager.Prefetch(3);
  manager.Drain();
  EXPECT_LE(manager.charged_bytes(), 2 * kSpan);
  const ResidencyManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.releases, 2u);
  EXPECT_EQ(stats.peak_charged, 2 * kSpan);
  EXPECT_EQ(stats.budget_overruns, 0u);
  // The second eviction dropped block 2, not the re-touched block 1.
  EXPECT_EQ(pager.calls.back().op, 'W');  // (3's advice is last)
  EXPECT_EQ(pager.calls[pager.calls.size() - 2],
            (PagerCall{'D', g_arena + 2 * kSpan, kSpan}));
}

TEST(ResidencyManager, DoubleReleaseIsANoOp) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(2), TestOptions(&pager));
  manager.Prefetch(0);
  manager.Drain();
  manager.Release(0);
  EXPECT_EQ(pager.Count('D'), 1u);
  EXPECT_EQ(manager.charged_bytes(), 0u);
  manager.Release(0);  // second release: nothing to drop, nothing billed
  EXPECT_EQ(pager.Count('D'), 1u);
  EXPECT_EQ(manager.charged_bytes(), 0u);
  EXPECT_EQ(manager.stats().releases, 1u);
}

TEST(ResidencyManager, ReleaseWhilePrefetchQueuedCancelsWithoutPagerCalls) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(2), TestOptions(&pager));
  manager.Prefetch(0);
  manager.Release(0);  // prefetch never ran: cancel, no advice either way
  manager.Drain();
  EXPECT_TRUE(pager.calls.empty());
  EXPECT_EQ(manager.charged_bytes(), 0u);
  const ResidencyManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.cancels, 1u);
  EXPECT_EQ(stats.releases, 0u);
}

TEST(ResidencyManager, PinnedBlocksSurviveEvictionAndRelease) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(4), TestOptions(&pager, 2 * kSpan));
  manager.Prefetch(0);
  manager.Drain();
  manager.Pin(0);  // the block being stepped
  manager.Prefetch(1);
  manager.Drain();
  manager.Release(0);  // pinned: not releasable
  EXPECT_EQ(pager.Count('D'), 0u);
  manager.Prefetch(2);  // over budget — LRU is pinned block 0, so 1 goes
  manager.Drain();
  ASSERT_EQ(pager.Count('D'), 1u);
  EXPECT_EQ(pager.calls[2], (PagerCall{'D', g_arena + kSpan, kSpan}));
  manager.Unpin(0);
  manager.Prefetch(3);  // now 0 is evictable again (and LRU)
  manager.Drain();
  EXPECT_EQ(pager.calls[pager.calls.size() - 2],
            (PagerCall{'D', g_arena, kSpan}));
  EXPECT_LE(manager.charged_bytes(), 2 * kSpan);
}

TEST(ResidencyManager, FullyPinnedSetForcesOverrunInsteadOfDeadlock) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(3), TestOptions(&pager, kSpan));
  manager.Pin(0);
  manager.Pin(1);  // pinned working set now exceeds the budget
  EXPECT_EQ(manager.charged_bytes(), 2 * kSpan);
  EXPECT_GE(manager.stats().budget_overruns, 1u);
  EXPECT_EQ(pager.Count('D'), 0u);
}

TEST(ResidencyManager, UnbudgetedManagerNeverEvicts) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(4), TestOptions(&pager));
  for (size_t b = 0; b < 4; ++b) manager.Prefetch(b);
  manager.Drain();
  EXPECT_EQ(pager.Count('W'), 4u);
  EXPECT_EQ(pager.Count('D'), 0u);
  EXPECT_EQ(manager.charged_bytes(), 4 * kSpan);
}

TEST(ResidencyManager, ResidentBytesQueriesTheSpanUnion) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(4), TestOptions(&pager));
  // The fake reports the queried size, so this checks the union geometry.
  EXPECT_EQ(manager.ResidentBytes(), 4 * kSpan);
}

TEST(ResidencyManager, BackgroundThreadDeliversAdviceEventually) {
  FakePager pager;  // only the manager's worker touches it before join
  ResidencyManager::Options options;
  options.pager = &pager;
  {
    ResidencyManager manager(MakeSpans(2), options);
    ASSERT_TRUE(manager.StartPrefetcher().ok());
    manager.Prefetch(0);
    manager.Prefetch(1);
    manager.Drain();  // callers may drain concurrently with the worker
  }  // destructor joins the worker
  EXPECT_EQ(pager.Count('W'), 2u);
}

TEST(ResidencyManager, OutOfRangeBlocksAreIgnored) {
  FakePager pager;
  ResidencyManager manager(MakeSpans(2), TestOptions(&pager));
  manager.Prefetch(9);
  manager.Pin(9);
  manager.Unpin(9);
  manager.Release(9);
  manager.Drain();
  EXPECT_TRUE(pager.calls.empty());
  EXPECT_EQ(manager.charged_bytes(), 0u);
}

}  // namespace
}  // namespace wnw::storage
