// Golden identity pins for the WALK-ESTIMATE hot path: the first 50
// samples, query_cost and total_queries of `we` and `we-path` under every
// walk design (srw, mhrw, lazy) and every Figure 9 heuristic variant (full,
// none, crawl, weighted), drawn through SamplingSession on the `small`
// dataset with fixed seeds.
//
// The values were captured from the implementation that used one
// std::unordered_map per walk step for the WS-BW hit history and copied the
// candidate list on every backward step, before either was rewritten. Any
// change to backward estimation that is meant to be a pure speed-up must
// leave every row here unchanged; a change that deliberately reorders the
// estimator's random draws re-pins the table and says so. The restricted
// rows at the end were captured the same way, before the backward step
// reused recent neighbor lists, skipped the adjacency test on symmetric
// views and memoized WS-BW pick weights.
//
// The seeds match `wnw_sample --dataset small --seed 20260611 --samples 50
// --json --spec <spec>` (the CLI seeds the session with seed + 2), so any
// row can be reproduced from the command line.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <vector>

#include "core/session.h"
#include "datasets/social_datasets.h"

namespace wnw {
namespace {

constexpr uint64_t kDatasetSeed = 20260611;
constexpr uint64_t kSessionSeed = kDatasetSeed + 2;
constexpr size_t kSamples = 50;

struct Golden {
  const char* spec;
  uint64_t query_cost;
  uint64_t total_queries;
  std::array<NodeId, kSamples> samples;
};

// clang-format off
const Golden kGolden[] = {
  {"we:srw?diameter=6&variant=full", 1000, 909519,
   {279, 78, 194, 336, 894, 14, 366, 354, 15, 614,
    40, 149, 11, 68, 70, 132, 862, 235, 730, 15,
    188, 85, 264, 59, 182, 876, 630, 231, 623, 60,
    49, 488, 955, 666, 58, 25, 9, 379, 1, 19,
    492, 1, 601, 38, 1, 18, 609, 183, 503, 461}},
  {"we:srw?diameter=6&variant=none", 942, 8500,
   {279, 299, 36, 634, 892, 66, 783, 492, 167, 56,
    41, 232, 345, 460, 1, 966, 15, 366, 328, 446,
    726, 849, 143, 396, 157, 502, 167, 83, 617, 49,
    207, 441, 967, 3, 269, 250, 53, 171, 192, 298,
    235, 201, 392, 18, 935, 835, 991, 784, 190, 98}},
  {"we:srw?diameter=6&variant=crawl", 1000, 29371,
   {279, 3, 391, 327, 942, 807, 745, 759, 114, 8,
    15, 330, 842, 140, 279, 630, 410, 351, 802, 22,
    108, 317, 406, 418, 891, 582, 223, 244, 2, 741,
    732, 377, 97, 908, 148, 105, 16, 76, 466, 488,
    600, 12, 0, 283, 677, 4, 429, 23, 22, 101}},
  {"we:srw?diameter=6&variant=weighted", 1000, 738668,
   {279, 79, 840, 255, 1, 459, 499, 8, 85, 440,
    171, 523, 55, 894, 620, 414, 355, 15, 9, 509,
    7, 19, 855, 12, 626, 420, 12, 74, 809, 56,
    158, 169, 137, 942, 543, 157, 437, 66, 10, 0,
    285, 226, 45, 386, 253, 389, 235, 346, 270, 274}},
  {"we:mhrw?diameter=6&variant=full", 993, 216173,
   {980, 596, 147, 511, 366, 725, 724, 624, 859, 27,
    743, 682, 754, 684, 450, 750, 680, 224, 204, 827,
    248, 229, 78, 535, 96, 292, 620, 17, 726, 338,
    91, 747, 991, 917, 328, 232, 654, 547, 148, 170,
    806, 602, 363, 515, 149, 736, 173, 591, 787, 350}},
  {"we:mhrw?diameter=6&variant=none", 914, 11407,
   {980, 35, 27, 612, 283, 830, 135, 661, 312, 210,
    85, 669, 203, 173, 883, 346, 633, 233, 690, 869,
    811, 183, 716, 438, 446, 742, 748, 497, 720, 30,
    120, 889, 36, 982, 411, 807, 505, 190, 103, 49,
    879, 497, 825, 42, 401, 869, 684, 930, 534, 137}},
  {"we:mhrw?diameter=6&variant=crawl", 998, 43085,
   {980, 164, 854, 952, 562, 1, 308, 349, 362, 760,
    312, 625, 120, 33, 56, 561, 995, 168, 608, 481,
    795, 960, 260, 114, 14, 318, 197, 346, 370, 936,
    751, 479, 84, 969, 636, 18, 451, 21, 897, 645,
    949, 230, 824, 0, 780, 729, 602, 854, 706, 417}},
  {"we:mhrw?diameter=6&variant=weighted", 1000, 513245,
   {980, 523, 32, 412, 35, 189, 733, 437, 142, 935,
    248, 501, 514, 630, 78, 185, 975, 557, 819, 736,
    242, 295, 673, 154, 848, 716, 449, 957, 277, 983,
    215, 481, 597, 108, 847, 110, 445, 197, 507, 782,
    683, 270, 715, 916, 547, 312, 450, 126, 628, 577}},
  {"we:lazy?diameter=6&variant=full", 999, 312067,
   {107, 363, 20, 142, 19, 278, 501, 14, 12, 35,
    30, 697, 211, 575, 92, 389, 70, 143, 18, 273,
    924, 221, 157, 75, 232, 0, 176, 526, 91, 10,
    1, 895, 287, 12, 402, 795, 416, 607, 65, 57,
    57, 39, 461, 70, 160, 64, 643, 209, 819, 923}},
  {"we:lazy?diameter=6&variant=none", 916, 8176,
   {107, 154, 548, 394, 659, 99, 414, 121, 545, 915,
    32, 4, 224, 605, 48, 98, 269, 18, 97, 145,
    23, 44, 13, 5, 12, 334, 441, 1, 30, 856,
    378, 937, 37, 60, 792, 371, 504, 18, 220, 146,
    43, 15, 170, 43, 190, 817, 95, 954, 446, 1}},
  {"we:lazy?diameter=6&variant=crawl", 1000, 58625,
   {107, 484, 707, 452, 5, 367, 319, 4, 13, 18,
    63, 968, 682, 389, 26, 136, 89, 529, 646, 736,
    123, 32, 581, 206, 298, 459, 297, 347, 543, 148,
    140, 96, 73, 1, 87, 949, 380, 2, 76, 65,
    539, 183, 140, 944, 185, 93, 744, 402, 237, 607}},
  {"we:lazy?diameter=6&variant=weighted", 1000, 377376,
   {107, 70, 196, 708, 88, 43, 80, 169, 626, 601,
    937, 910, 863, 4, 691, 658, 399, 505, 104, 972,
    169, 480, 410, 3, 44, 413, 66, 1, 574, 880,
    232, 60, 209, 794, 219, 25, 40, 258, 275, 46,
    20, 49, 357, 917, 492, 801, 186, 555, 632, 740}},
  {"we-path:srw?diameter=6&variant=full", 994, 126168,
   {328, 39, 129, 13, 6, 279, 457, 140, 348, 180,
    784, 398, 0, 31, 7, 2, 316, 17, 720, 49,
    355, 5, 0, 483, 922, 0, 0, 355, 459, 11,
    449, 630, 60, 313, 5, 19, 114, 137, 591, 35,
    971, 63, 63, 655, 59, 28, 2, 509, 25, 202}},
  {"we-path:srw?diameter=6&variant=none", 886, 6531,
   {328, 39, 129, 298, 13, 405, 6, 279, 498, 358,
    448, 87, 47, 943, 2, 29, 34, 650, 345, 391,
    731, 141, 330, 258, 151, 27, 155, 859, 260, 47,
    996, 776, 913, 236, 100, 9, 172, 123, 415, 77,
    727, 275, 950, 275, 328, 275, 950, 77, 120, 854}},
  {"we-path:srw?diameter=6&variant=crawl", 995, 19548,
   {328, 39, 129, 298, 13, 405, 122, 428, 350, 675,
    462, 549, 434, 16, 437, 55, 940, 272, 480, 237,
    217, 314, 455, 271, 600, 537, 510, 95, 474, 516,
    870, 848, 10, 809, 199, 18, 637, 157, 609, 9,
    40, 852, 673, 11, 51, 325, 91, 483, 922, 28}},
  {"we-path:srw?diameter=6&variant=weighted", 996, 152661,
   {328, 39, 129, 298, 13, 405, 6, 279, 2, 520,
    411, 22, 906, 389, 31, 0, 6, 282, 850, 94,
    604, 47, 47, 105, 28, 805, 678, 75, 95, 19,
    551, 360, 845, 160, 19, 17, 481, 15, 245, 59,
    14, 136, 3, 338, 257, 411, 127, 328, 671, 959}},
  {"we-path:mhrw?diameter=6&variant=full", 910, 74232,
   {290, 164, 164, 320, 320, 980, 291, 869, 572, 572,
    524, 524, 524, 161, 454, 479, 737, 737, 358, 982,
    171, 72, 232, 739, 739, 984, 39, 614, 762, 144,
    890, 403, 911, 512, 513, 523, 523, 144, 836, 96,
    96, 96, 104, 118, 889, 365, 641, 724, 268, 232}},
  {"we-path:mhrw?diameter=6&variant=none", 820, 8939,
   {290, 164, 164, 164, 444, 320, 320, 980, 823, 823,
    276, 823, 240, 542, 542, 109, 439, 877, 11, 974,
    484, 974, 484, 117, 921, 139, 933, 654, 654, 131,
    11, 16, 952, 569, 952, 952, 952, 952, 221, 221,
    830, 655, 655, 830, 830, 830, 830, 830, 736, 736}},
  {"we-path:mhrw?diameter=6&variant=crawl", 994, 32148,
   {290, 164, 164, 164, 444, 320, 320, 980, 958, 958,
    958, 81, 81, 108, 50, 277, 895, 311, 895, 895,
    790, 506, 790, 506, 840, 888, 888, 888, 888, 572,
    690, 572, 524, 524, 166, 514, 514, 496, 690, 355,
    760, 760, 760, 760, 25, 109, 634, 634, 444, 108}},
  {"we-path:mhrw?diameter=6&variant=weighted", 875, 42217,
   {290, 164, 164, 164, 444, 320, 320, 980, 94, 181,
    24, 210, 210, 210, 210, 210, 834, 176, 219, 219,
    516, 432, 432, 231, 446, 446, 130, 77, 341, 341,
    341, 549, 279, 990, 460, 460, 810, 94, 610, 659,
    398, 665, 501, 501, 288, 995, 58, 58, 972, 457}},
  {"we-path:lazy?diameter=6&variant=full", 939, 56303,
   {299, 4, 556, 556, 293, 569, 293, 107, 60, 300,
    114, 114, 976, 149, 465, 165, 768, 859, 42, 26,
    321, 242, 57, 699, 6, 6, 597, 597, 442, 597,
    168, 367, 2, 131, 809, 298, 298, 93, 624, 443,
    443, 16, 16, 5, 198, 958, 99, 72, 988, 909}},
  {"we-path:lazy?diameter=6&variant=none", 865, 6886,
   {299, 4, 556, 556, 293, 569, 293, 107, 599, 599,
    599, 599, 9, 71, 82, 82, 118, 118, 388, 388,
    964, 964, 964, 22, 15, 549, 670, 670, 670, 670,
    260, 260, 200, 525, 525, 642, 186, 186, 186, 186,
    636, 636, 251, 251, 251, 873, 873, 8, 321, 321}},
  {"we-path:lazy?diameter=6&variant=crawl", 997, 23661,
   {299, 4, 556, 556, 293, 569, 293, 107, 933, 654,
    654, 473, 25, 549, 15, 15, 827, 518, 518, 827,
    827, 827, 518, 139, 834, 8, 84, 8, 8, 8,
    8, 8, 60, 60, 988, 988, 121, 46, 139, 136,
    19, 937, 535, 293, 293, 672, 474, 290, 494, 254}},
  {"we-path:lazy?diameter=6&variant=weighted", 988, 131086,
   {299, 4, 556, 556, 293, 569, 293, 107, 219, 219,
    636, 636, 636, 636, 14, 765, 765, 326, 16, 49,
    517, 182, 312, 815, 499, 337, 552, 552, 77, 54,
    54, 9, 364, 126, 590, 590, 171, 16, 926, 926,
    970, 423, 387, 19, 523, 324, 12, 12, 369, 237}},
};
// clang-format on

class WeGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(WeGoldenTest, SamplesAndCostMatchPinnedValues) {
  static const Graph graph = MakeSmallScaleFree(kDatasetSeed).graph;
  const Golden& golden = GetParam();
  SessionOptions options;
  options.seed = kSessionSeed;
  auto session = SamplingSession::Open(&graph, golden.spec, options);
  ASSERT_TRUE(session.ok()) << golden.spec;
  std::vector<NodeId> samples;
  ASSERT_TRUE((*session)->DrawInto(&samples, kSamples).ok()) << golden.spec;
  EXPECT_EQ(samples, std::vector<NodeId>(golden.samples.begin(),
                                         golden.samples.end()))
      << golden.spec;
  const SessionStats stats = (*session)->Stats();
  EXPECT_EQ(stats.query_cost, golden.query_cost) << golden.spec;
  EXPECT_EQ(stats.total_queries, golden.total_queries) << golden.spec;
}

INSTANTIATE_TEST_SUITE_P(
    AllDesignsAndVariants, WeGoldenTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name;
      for (const char* c = info.param.spec; *c != '\0'; ++c) {
        name += std::isalnum(static_cast<unsigned char>(*c)) ? *c : '_';
      }
      return name;
    });

// Restricted origins (paper §6.3.1), default variant (crawl + WS-BW). Type 2
// with the bidirectional check is a symmetric view: a predecessor drawn from
// N(cur) always lists cur, so the backward step may skip the adjacency test.
// Type 3 without the check is asymmetric: the test must still run, and it
// rejects predecessors whose truncated list hides cur.
struct RestrictedGolden {
  const char* spec;
  NeighborRestriction restriction;
  bool bidirectional_check;
  uint64_t query_cost;
  uint64_t total_queries;
  std::array<NodeId, kSamples> samples;
};

constexpr uint32_t kRestrictionCap = 8;

// clang-format off
const RestrictedGolden kRestrictedGolden[] = {
  {"we:mhrw?diameter=6", NeighborRestriction::kFixedSubset, true, 998, 174426,
   {896, 294, 959, 681, 61, 116, 3, 70, 408, 67,
    873, 398, 869, 158, 95, 677, 401, 694, 242, 630,
    558, 587, 807, 198, 289, 65, 773, 396, 6, 685,
    40, 383, 566, 679, 964, 315, 251, 334, 179, 899,
    129, 266, 280, 120, 745, 772, 22, 892, 337, 87}},
  {"we-path:srw?diameter=6", NeighborRestriction::kFixedSubset, true, 998, 75310,
   {291, 56, 596, 402, 132, 411, 132, 402, 572, 308,
    572, 308, 469, 175, 573, 52, 389, 536, 829, 928,
    999, 919, 671, 959, 249, 729, 988, 196, 525, 233,
    23, 318, 899, 447, 457, 573, 758, 60, 501, 288,
    973, 902, 977, 761, 514, 836, 253, 294, 595, 286}},
  {"we:mhrw?diameter=6", NeighborRestriction::kTruncated, false, 113, 81812,
   {8, 1, 2, 1, 8, 5, 5, 2, 2, 8,
    8, 2, 4, 6, 7, 6, 5, 3, 8, 7,
    4, 2, 6, 6, 8, 7, 6, 9, 2, 5,
    6, 6, 8, 0, 6, 5, 4, 8, 4, 5,
    9, 1, 6, 5, 7, 1, 9, 0, 1, 3}},
  {"we-path:srw?diameter=6", NeighborRestriction::kTruncated, false, 92, 112282,
   {2, 0, 3, 1, 6, 0, 51, 19, 8, 6,
    0, 1, 8, 0, 64, 3, 9, 2, 0, 4,
    12, 6, 6, 8, 7, 6, 11, 2, 5, 12,
    1, 7, 1, 8, 2, 4, 3, 6, 5, 4,
    1, 0, 3, 4, 8, 9, 1, 5, 3, 9}},
};
// clang-format on

class WeRestrictedGoldenTest
    : public ::testing::TestWithParam<RestrictedGolden> {};

TEST_P(WeRestrictedGoldenTest, SamplesAndCostMatchPinnedValues) {
  static const Graph graph = MakeSmallScaleFree(kDatasetSeed).graph;
  const RestrictedGolden& golden = GetParam();
  SessionOptions options;
  options.seed = kSessionSeed;
  options.access.restriction = golden.restriction;
  options.access.max_neighbors = kRestrictionCap;
  options.access.bidirectional_check = golden.bidirectional_check;
  auto session = SamplingSession::Open(&graph, golden.spec, options);
  ASSERT_TRUE(session.ok()) << golden.spec;
  std::vector<NodeId> samples;
  ASSERT_TRUE((*session)->DrawInto(&samples, kSamples).ok()) << golden.spec;
  const SessionStats stats = (*session)->Stats();
  EXPECT_EQ(samples, std::vector<NodeId>(golden.samples.begin(),
                                         golden.samples.end()))
      << golden.spec;
  EXPECT_EQ(stats.query_cost, golden.query_cost) << golden.spec;
  EXPECT_EQ(stats.total_queries, golden.total_queries) << golden.spec;
}

INSTANTIATE_TEST_SUITE_P(
    RestrictedOrigins, WeRestrictedGoldenTest,
    ::testing::ValuesIn(kRestrictedGolden),
    [](const ::testing::TestParamInfo<RestrictedGolden>& info) {
      std::string name =
          info.param.restriction == NeighborRestriction::kFixedSubset
              ? "fixed8_check_"
              : "truncated8_nocheck_";
      for (const char* c = info.param.spec; *c != '\0'; ++c) {
        name += std::isalnum(static_cast<unsigned char>(*c)) ? *c : '_';
      }
      return name;
    });

}  // namespace
}  // namespace wnw
