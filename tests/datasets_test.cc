#include <gtest/gtest.h>

#include "datasets/social_datasets.h"
#include "graph/algorithms.h"
#include "graph/generators.h"

namespace wnw {
namespace {

TEST(DatasetsTest, GPlusLikeShape) {
  const SocialDataset ds = MakeGPlusLike(0.05, 1);
  EXPECT_GE(ds.graph.num_nodes(), 400u);
  EXPECT_TRUE(IsConnected(ds.graph));
  EXPECT_TRUE(ds.attrs.HasColumn("self_desc_len"));
  EXPECT_GT(ds.diameter_estimate, 0u);
  // Dense scale-free: average degree well above the other datasets'.
  EXPECT_GT(ds.graph.average_degree(), 10.0);
}

TEST(DatasetsTest, GPlusAttributeNonNegative) {
  const SocialDataset ds = MakeGPlusLike(0.05, 2);
  const auto col = ds.attrs.Column("self_desc_len").value();
  for (double v : col) EXPECT_GE(v, 0.0);
}

TEST(DatasetsTest, YelpLikeShape) {
  const SocialDataset ds = MakeYelpLike(0.03, 3);
  EXPECT_GE(ds.graph.num_nodes(), 2000u);
  EXPECT_TRUE(IsConnected(ds.graph));
  EXPECT_TRUE(ds.attrs.HasColumn("stars"));
  EXPECT_TRUE(ds.attrs.HasColumn("path_len"));
  EXPECT_TRUE(ds.attrs.HasColumn("clustering"));
  // Stars live in Yelp's 1..5 range. (Copy the span out of the temporary
  // Result first — range-for does not lifetime-extend through .value().)
  const auto stars = ds.attrs.Column("stars").value();
  for (double s : stars) {
    EXPECT_GE(s, 1.0);
    EXPECT_LE(s, 5.0);
  }
}

TEST(DatasetsTest, YelpExpensiveAttrsSkippable) {
  const SocialDataset ds =
      MakeYelpLike(0.03, 4, /*with_expensive_attrs=*/false);
  EXPECT_FALSE(ds.attrs.HasColumn("clustering"));
  EXPECT_TRUE(ds.attrs.HasColumn("stars"));
}

TEST(DatasetsTest, TwitterLikeShape) {
  const SocialDataset ds = MakeTwitterLike(0.04, 5);
  EXPECT_GE(ds.graph.num_nodes(), 2000u);
  EXPECT_TRUE(IsConnected(ds.graph));
  EXPECT_TRUE(ds.attrs.HasColumn("in_degree"));
  EXPECT_TRUE(ds.attrs.HasColumn("out_degree"));
  EXPECT_TRUE(ds.attrs.HasColumn("path_len"));
}

TEST(DatasetsTest, TwitterInOutDegreesBalance) {
  const SocialDataset ds = MakeTwitterLike(0.04, 6);
  const auto in = ds.attrs.Column("in_degree").value();
  const auto out = ds.attrs.Column("out_degree").value();
  double in_sum = 0, out_sum = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    in_sum += in[i];
    out_sum += out[i];
  }
  EXPECT_DOUBLE_EQ(in_sum, out_sum);
}

TEST(DatasetsTest, SmallScaleFreeMatchesPaperCounts) {
  const SocialDataset ds = MakeSmallScaleFree(7);
  EXPECT_EQ(ds.graph.num_nodes(), 1000u);
  // Paper: 6951 edges; our BA(1000, 7) construction gives 6972.
  EXPECT_NEAR(static_cast<double>(ds.graph.num_edges()), 6951.0, 50.0);
  EXPECT_TRUE(IsConnected(ds.graph));
}

TEST(DatasetsTest, SyntheticBASizes) {
  for (NodeId n : {NodeId{2000}, NodeId{4000}}) {
    const SocialDataset ds = MakeSyntheticBA(n, 5, 8);
    EXPECT_EQ(ds.graph.num_nodes(), n);
    EXPECT_TRUE(IsConnected(ds.graph));
    EXPECT_NEAR(ds.graph.average_degree(), 10.0, 1.0);  // 2m
  }
}

TEST(DatasetsTest, DeterministicForSeed) {
  const SocialDataset a = MakeYelpLike(0.03, 42, false);
  const SocialDataset b = MakeYelpLike(0.03, 42, false);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.attrs.Column("stars").value()[17],
            b.attrs.Column("stars").value()[17]);
}

TEST(DatasetsTest, SmallDiameters) {
  // The paper's premise: OSNs have small diameters (3-8). Our stand-ins
  // must too, since WALK's 2*D+1 length depends on it.
  EXPECT_LE(MakeGPlusLike(0.05, 9).diameter_estimate, 6u);
  EXPECT_LE(MakeYelpLike(0.03, 9, false).diameter_estimate, 12u);
  EXPECT_LE(MakeTwitterLike(0.04, 9, false).diameter_estimate, 10u);
}

TEST(DatasetSpecTest, SizesThatDoNotFitAreRejectedNotWrapped) {
  // 4294967306 = 2^32 + 10: a cast would build a 10-node graph.
  for (const char* spec : {"ba:4294967306,3", "ba:4294967296,3",
                           "rand:4294967296,10", "ba:100,4294967296"}) {
    EXPECT_EQ(ParseDatasetSpec(spec).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
  const auto widest = ParseDatasetSpec("ba:4294967295,4294967295");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest->nodes, 4294967295u);
  EXPECT_EQ(widest->edges, 4294967295u);
  // rand's M counts all edges, so it may exceed 32 bits.
  const auto rand = ParseDatasetSpec("rand:10,4294967296");
  ASSERT_TRUE(rand.ok());
  EXPECT_EQ(rand->kind, DatasetSpec::Kind::kUniformRandom);
  EXPECT_EQ(rand->edges, uint64_t{1} << 32);
}

TEST(DatasetSpecTest, MalformedSpecsAreInvalidArgument) {
  for (const char* spec : {"", "ba", "ba:", "ba:10", "ba:10,3,1", "ba:x,3",
                           "ba:-5,3", "rand:10", "er:10,3", "GPLUS",
                           "small:1"}) {
    EXPECT_EQ(ParseDatasetSpec(spec).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
}

TEST(DatasetSpecTest, BuildsWhatTheMakersBuild) {
  constexpr uint64_t kSeed = 20260611;
  Rng rng(kSeed);
  const Graph ba = MakeBarabasiAlbert(500, 3, rng).value();
  const Graph rand = MakeUniformRandomMultigraph(300, 900, kSeed).value();
  const struct {
    const char* spec;
    uint64_t checksum;
  } cases[] = {
      {"ba:500,3", ba.TopologyChecksum()},
      {"rand:300,900", rand.TopologyChecksum()},
      {"small", MakeSmallScaleFree(kSeed).graph.TopologyChecksum()},
      {"gplus", MakeGPlusLike(0.05, kSeed).graph.TopologyChecksum()},
  };
  for (const auto& c : cases) {
    const auto spec = ParseDatasetSpec(c.spec);
    ASSERT_TRUE(spec.ok()) << c.spec;
    const auto built = BuildDatasetGraph(*spec, kSeed, 0.05);
    ASSERT_TRUE(built.ok()) << c.spec;
    EXPECT_EQ(built->TopologyChecksum(), c.checksum) << c.spec;
  }
}

}  // namespace
}  // namespace wnw
