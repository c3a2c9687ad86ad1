#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "random/rng.h"
#include "random/sampling.h"

namespace wnw {
namespace {

// RngCore is the whole of Rng's uniform stream: from the same seed both
// give the same values call for call, whatever the mix of draws and bounds.
TEST(RngCoreTest, MatchesRngDrawForDraw) {
  EXPECT_EQ(sizeof(RngCore), 32u);
  const uint64_t bounds[] = {1,
                             2,
                             3,
                             7,
                             1000,
                             (uint64_t{1} << 32) + 1,
                             (uint64_t{1} << 63) + 5,
                             std::numeric_limits<uint64_t>::max()};
  Rng picker(4242);
  for (uint64_t seed = 0; seed < 300; ++seed) {
    const uint64_t s = seed < 100 ? seed : Mix64(seed);
    Rng rng(s);
    RngCore core(s);
    for (int i = 0; i < 400; ++i) {
      switch (picker.NextBounded(4)) {
        case 0:
          ASSERT_EQ(core.Next(), rng.Next()) << seed << " " << i;
          break;
        case 1: {
          const uint64_t bound = bounds[picker.NextBounded(std::size(bounds))];
          ASSERT_EQ(core.NextBounded(bound), rng.NextBounded(bound))
              << seed << " " << i << " bound " << bound;
          break;
        }
        case 2:
          ASSERT_EQ(core.NextDouble(), rng.NextDouble()) << seed << " " << i;
          break;
        default: {
          const double p = picker.NextDouble();
          ASSERT_EQ(core.NextBool(p), rng.NextBool(p)) << seed << " " << i;
          break;
        }
      }
    }
  }
}

// The stream itself is pinned: seeding and the first draws give what they
// have always given, so recorded samples stay reproducible.
TEST(RngCoreTest, StreamIsPinned) {
  struct Pin {
    uint64_t seed;
    uint64_t next;
    uint64_t bounded;  // NextBounded(1000003) after `next`
    double unit;       // NextDouble() after that
  };
  const Pin pins[] = {
      {0, 0x99ec5f36cb75f2b4ull, 747776, 0.10301998939503632},
      {1, 0xb3f2af6d0fc710c5ull, 520438, 0.5741057000197225},
      {777, 0xf12ef504b5ffa129ull, 15155, 0.87365244506273831},
  };
  for (const Pin& pin : pins) {
    RngCore core(pin.seed);
    EXPECT_EQ(core.Next(), pin.next) << pin.seed;
    EXPECT_EQ(core.NextBounded(1000003), pin.bounded) << pin.seed;
    EXPECT_EQ(core.NextDouble(), pin.unit) << pin.seed;
  }
  EXPECT_EQ(Rng().Next(), 0x422ea740d0977210ull);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(5);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, NextBoundedApproximatelyUniform) {
  Rng rng(17);
  constexpr uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) counts[rng.NextBounded(kBound)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<int>(kBound), 600);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  constexpr int kN = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sq / kN, 1.0, 0.02);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(29);
  constexpr int kN = 100000;
  double sum = 0;
  for (int i = 0; i < kN; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.NextLogNormal(0.0, 1.0), 0.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(37);
  int heads = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) heads += rng.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / kN, 0.3, 0.01);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(41);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.Next() == child.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, Mix64Stateless) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(WeightedPickTest, RespectsWeights) {
  Rng rng(5);
  const std::vector<double> w{0.0, 5.0, 0.0, 15.0};
  std::vector<int> counts(w.size(), 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[WeightedPick(w, rng)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / kDraws, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / kDraws, 0.75, 0.01);
}

TEST(PmfPickTest, RespectsPmf) {
  Rng rng(6);
  const std::vector<double> pmf{0.1, 0.9};
  int ones = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ones += PmfPick(pmf, rng) == 1;
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.9, 0.01);
}

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Rng rng(7);
  for (int rep = 0; rep < 100; ++rep) {
    auto s = SampleWithoutReplacement(20, 10, rng);
    ASSERT_EQ(s.size(), 10u);
    std::sort(s.begin(), s.end());
    EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
    EXPECT_LT(s.back(), 20u);
  }
}

TEST(SampleWithoutReplacementTest, FullRange) {
  Rng rng(8);
  auto s = SampleWithoutReplacement(5, 5, rng);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(s, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(SampleWithoutReplacementTest, UniformInclusion) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  constexpr int kReps = 50000;
  for (int rep = 0; rep < kReps; ++rep) {
    for (uint32_t v : SampleWithoutReplacement(10, 3, rng)) counts[v]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kReps, 0.3, 0.015);
  }
}

TEST(ShuffleTest, PreservesElements) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5};
  Shuffle(std::span<int>(v), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ReservoirSamplerTest, KeepsAtMostK) {
  Rng rng(11);
  ReservoirSampler<int> rs(3);
  for (int i = 0; i < 100; ++i) rs.Add(i, rng);
  EXPECT_EQ(rs.sample().size(), 3u);
  EXPECT_EQ(rs.seen(), 100u);
}

TEST(ReservoirSamplerTest, UniformInclusionProbability) {
  Rng rng(12);
  std::vector<int> counts(20, 0);
  constexpr int kReps = 30000;
  for (int rep = 0; rep < kReps; ++rep) {
    ReservoirSampler<int> rs(5);
    for (int i = 0; i < 20; ++i) rs.Add(i, rng);
    for (int v : rs.sample()) counts[v]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kReps, 0.25, 0.02);
  }
}

}  // namespace
}  // namespace wnw
