#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unistd.h>

#include "test_util.h"
#include "util/huge_page_arena.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread.h"
#include "util/timer.h"

namespace wnw {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad graph");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad graph");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad graph");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kIOError,
        StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> Doubler(Result<int> in) {
  WNW_ASSIGN_OR_RETURN(const int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  const auto err = Doubler(Status::IOError("disk"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kIOError);
}

TEST(StringUtilTest, SplitBasic) {
  const auto parts = SplitString("a b\tc", " \t");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  const auto parts = SplitString("  x   y  ", " ");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "x");
  EXPECT_EQ(parts[1], "y");
}

TEST(StringUtilTest, SplitEmptyInput) {
  EXPECT_TRUE(SplitString("", " ").empty());
  EXPECT_TRUE(SplitString("   ", " ").empty());
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimString("  hi \r\n"), "hi");
  EXPECT_EQ(TrimString("hi"), "hi");
  EXPECT_EQ(TrimString("  \t "), "");
}

TEST(StringUtilTest, ParseUint64Valid) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(StringUtilTest, ParseUint64Invalid) {
  uint64_t v = 0;
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
  EXPECT_FALSE(ParseUint64("12x", &v));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5junk", &v));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("n=%d s=%s", 7, "x"), "n=7 s=x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringUtilTest, EnvFallbacks) {
  EXPECT_EQ(EnvUint64("WNW_DOES_NOT_EXIST_123", 9u), 9u);
  EXPECT_DOUBLE_EQ(EnvDouble("WNW_DOES_NOT_EXIST_123", 0.5), 0.5);
}

TEST(TableTest, AlignsAndCounts) {
  TablePrinter t({"a", "long_column"});
  t.AddRow({TablePrinter::Cell(int64_t{1}), TablePrinter::Cell(2.5)});
  t.AddRow({TablePrinter::Cell("xyz"), TablePrinter::Cell(uint64_t{7})});
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CellFormatting) {
  EXPECT_EQ(TablePrinter::Cell(int64_t{-5}), "-5");
  EXPECT_EQ(TablePrinter::Cell(uint64_t{5}), "5");
  EXPECT_EQ(TablePrinter::CellPrec(0.123456789, 3), "0.123");
}

TEST(TableTest, WritesCsv) {
  TablePrinter t({"x", "y"});
  t.AddComment("hello");
  t.AddRow({TablePrinter::Cell(1), TablePrinter::Cell(2)});
  const std::string path = ::testing::TempDir() + "/wnw_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_EQ(std::string(buf), "# hello\n");
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_EQ(std::string(buf), "x,y\n");
  std::fclose(f);
}

TEST(ParallelTest, RunsEveryIndexOnce) {
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); }, 8);
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelTest, InlineWhenSingleThread) {
  std::vector<int> order;
  ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelTest, ZeroCountIsNoop) {
  ParallelFor(0, [&](size_t) { FAIL(); }, 4);
}

TEST(TimerTest, MeasuresNonNegativeTime) {
  Timer t;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  t.Reset();
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

TEST(StartThreadTest, RunsTheFunction) {
  std::atomic<bool> ran{false};
  Result<std::thread> thread =
      StartThread("test thread", [&ran] { ran = true; });
  ASSERT_TRUE(thread.ok()) << thread.status().ToString();
  thread->join();
  EXPECT_TRUE(ran.load());
}

// With no address space to spare, the thread's start state (std::bad_alloc)
// or its stack (std::system_error) fails first; either way the caller gets
// ResourceExhausted. Under a sanitizer the cap leaves room for the
// runtime's own per-thread state, so the stack fails. The child is a fresh
// process ("threadsafe" style), so no joined thread's cached stack is there
// to reuse.
TEST(StartThreadTest, NoHeadroomIsResourceExhausted) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        testing::CapAddressSpace(
            testing::kSanitized ? testing::DefaultThreadStack() / 4 : 0);
        Result<std::thread> thread = StartThread("test thread", [] {});
        if (thread.ok()) thread->join();
        testing::ExitWithStatus(thread.status());
      },
      ::testing::ExitedWithCode(0), "ResourceExhausted: test thread");
}

// Every byte of the arena starts zero, keeps what is written to it, and
// lies inside one mapping of the reported size.
void ExpectUsable(const HugePageArena& arena, uint8_t tag) {
  auto* bytes = static_cast<uint8_t*>(arena.data());
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes[0], 0);
  EXPECT_EQ(bytes[arena.size() - 1], 0);
  for (size_t i = 0; i < arena.size(); i += 4096) {
    bytes[i] = static_cast<uint8_t>(tag + i / 4096);
  }
  bytes[arena.size() - 1] = tag;
  for (size_t i = 0; i < arena.size(); i += 4096) {
    ASSERT_EQ(bytes[i], static_cast<uint8_t>(tag + i / 4096)) << i;
  }
  EXPECT_EQ(bytes[arena.size() - 1], tag);
}

TEST(HugePageArenaTest, MapsLengthsBelowAtAndBetweenHugePages) {
  constexpr size_t kHuge = HugePageArena::kHugePage;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  for (const size_t bytes :
       {size_t{1}, size_t{768}, page, kHuge - 1, kHuge, 3 * kHuge + 12345}) {
    Result<HugePageArena> arena = HugePageArena::Map(bytes);
    ASSERT_TRUE(arena.ok()) << bytes << ": " << arena.status().ToString();
    EXPECT_GE(arena->size(), bytes);
    EXPECT_LT(arena->size(), bytes + page);
    EXPECT_EQ(arena->size() % page, 0u);
    const auto address = reinterpret_cast<uintptr_t>(arena->data());
    if (bytes >= kHuge) EXPECT_EQ(address % kHuge, 0u) << bytes;
    ExpectUsable(*arena, static_cast<uint8_t>(bytes));
  }
  Result<HugePageArena> empty = HugePageArena::Map(0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->data(), nullptr);
  EXPECT_EQ(empty->size(), 0u);
}

TEST(HugePageArenaTest, MovesCarryTheMapping) {
  HugePageArena first =
      HugePageArena::Map(HugePageArena::kHugePage + 100).value();
  ExpectUsable(first, 7);
  void* const data = first.data();
  const size_t size = first.size();

  HugePageArena second(std::move(first));
  EXPECT_EQ(first.data(), nullptr);
  EXPECT_EQ(first.size(), 0u);
  EXPECT_EQ(second.data(), data);
  EXPECT_EQ(second.size(), size);
  EXPECT_EQ(static_cast<uint8_t*>(second.data())[size - 1], 7);

  // Assignment unmaps the target's old region and takes the source's.
  HugePageArena third = HugePageArena::Map(100).value();
  third = std::move(second);
  EXPECT_EQ(second.data(), nullptr);
  EXPECT_EQ(third.data(), data);
  EXPECT_EQ(third.size(), size);
  EXPECT_EQ(static_cast<uint8_t*>(third.data())[size - 1], 7);
}

TEST(HugePageArenaTest, RefusedMappingIsResourceExhausted) {
  const Result<HugePageArena> huge = HugePageArena::Map(SIZE_MAX);
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        testing::CapAddressSpace(HugePageArena::kHugePage);
        testing::ExitWithStatus(
            HugePageArena::Map(64 * HugePageArena::kHugePage).status());
      },
      ::testing::ExitedWithCode(0), "cannot map 134217728 bytes");
}

}  // namespace
}  // namespace wnw
