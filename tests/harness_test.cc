#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "access/backend.h"
#include "estimation/metrics.h"
#include "experiments/harness.h"
#include "mcmc/distribution.h"
#include "storage/snapshot.h"

namespace wnw {
namespace {

SocialDataset TinyDataset() { return MakeSyntheticBA(400, 3, 11); }

TEST(HarnessTest, BurnInSpecLabelsAndBias) {
  const auto srw = MakeBurnInSpec("srw");
  EXPECT_EQ(srw.label, "SRW");
  EXPECT_EQ(srw.bias(), TargetBias::kStationaryWeighted);
  EXPECT_EQ(srw.config.ToSpec(), "burnin:srw");
  const auto mhrw = MakeBurnInSpec("mhrw");
  EXPECT_EQ(mhrw.label, "MHRW");
  EXPECT_EQ(mhrw.bias(), TargetBias::kUniform);
  EXPECT_EQ(mhrw.config.ToSpec(), "burnin:mhrw");
}

TEST(HarnessTest, SpecStringWrapper) {
  const auto spec = MakeSamplerSpec("we:mhrw?diameter=8");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->label, "we:mhrw?diameter=8");
  EXPECT_EQ(spec->bias(), TargetBias::kUniform);
  EXPECT_EQ(spec->config.sampler, "we");
  EXPECT_FALSE(MakeSamplerSpec("we?bad").ok());
  // Validation goes beyond syntax: unknown sampler names and walk designs
  // are rejected here, not warning-logged later.
  EXPECT_EQ(MakeSamplerSpec("wee:srw").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(MakeSamplerSpec("we:mrhw").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HarnessTest, ErrorVsCostFromSpecString) {
  const SocialDataset ds = TinyDataset();
  ErrorVsCostConfig config;
  config.sample_counts = {5};
  config.trials = 2;
  config.seed = 3;
  // Missing spec is an error, not a crash.
  EXPECT_FALSE(RunErrorVsCost(ds, {"avg_deg", ""}, config).ok());
  config.sampler_spec =
      "we:srw?diameter=" + std::to_string(ds.diameter_estimate);
  const auto curve = RunErrorVsCost(ds, {"avg_deg", ""}, config);
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->size(), 1u);
  EXPECT_EQ((*curve)[0].completed_trials, 2);
  EXPECT_GT((*curve)[0].mean_query_cost, 0.0);
}

TEST(HarnessTest, WalkEstimateSpecLabels) {
  WalkEstimateOptions opts;
  EXPECT_EQ(MakeWalkEstimateSpec("srw", opts).label, "WE");
  EXPECT_EQ(
      MakeWalkEstimateSpec("srw", opts, WalkEstimateVariant::kCrawlOnly).label,
      "WE-Crawl");
  EXPECT_EQ(MakeWalkEstimateSpec("mhrw", opts, WalkEstimateVariant::kFull,
                                 "MHRW")
                .label,
            "WE-MHRW");
}

TEST(HarnessTest, GroundTruthDegreeAndColumn) {
  const SocialDataset ds = MakeSmallScaleFree(3);
  EXPECT_DOUBLE_EQ(GroundTruth(ds, {"deg", ""}),
                   ds.graph.average_degree());
  const double cc = GroundTruth(ds, {"cc", "clustering"});
  EXPECT_GT(cc, 0.0);
  EXPECT_LT(cc, 1.0);
}

TEST(HarnessTest, ErrorVsCostProducesMonotoneCost) {
  const SocialDataset ds = TinyDataset();
  WalkEstimateOptions wopts;
  wopts.diameter_bound = ds.diameter_estimate;
  const auto spec = MakeWalkEstimateSpec("srw", wopts);
  ErrorVsCostConfig config;
  config.sample_counts = {5, 10, 20};
  config.trials = 4;
  config.seed = 17;
  const auto curve = RunErrorVsCost(ds, spec, {"avg_deg", ""}, config);
  ASSERT_EQ(curve.size(), 3u);
  for (const auto& p : curve) {
    EXPECT_EQ(p.completed_trials, 4);
    EXPECT_GT(p.mean_query_cost, 0.0);
    EXPECT_GE(p.mean_rel_error, 0.0);
  }
  // More samples cannot cost fewer queries.
  EXPECT_LE(curve[0].mean_query_cost, curve[1].mean_query_cost);
  EXPECT_LE(curve[1].mean_query_cost, curve[2].mean_query_cost);
  // Unique cost never exceeds total queries.
  for (const auto& p : curve) {
    EXPECT_LE(p.mean_query_cost, p.mean_total_queries);
  }
}

TEST(HarnessTest, ErrorShrinksWithSamplesForBaseline) {
  const SocialDataset ds = TinyDataset();
  BurnInSampler::Options bopts;
  bopts.min_steps = 50;
  bopts.max_steps = 2000;
  const auto spec = MakeBurnInSpec("srw", bopts);
  ErrorVsCostConfig config;
  config.sample_counts = {5, 200};
  config.trials = 6;
  config.seed = 23;
  const auto curve = RunErrorVsCost(ds, spec, {"avg_deg", ""}, config);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_LT(curve[1].mean_rel_error, curve[0].mean_rel_error);
}

TEST(HarnessTest, EmpiricalDistributionApproachesTarget) {
  const SocialDataset ds = MakeSyntheticBA(150, 3, 29);
  WalkEstimateOptions wopts;
  wopts.diameter_bound = std::max(3u, ds.diameter_estimate);
  const auto spec = MakeWalkEstimateSpec("mhrw", wopts);
  const auto result = RunEmpiricalDistribution(ds, spec, 20000, 31, 8);
  EXPECT_EQ(result.total_samples, 20000u);
  EXPECT_GT(result.total_query_cost, 0u);
  const std::vector<double> uniform(ds.graph.num_nodes(),
                                    1.0 / ds.graph.num_nodes());
  EXPECT_LT(TotalVariationDistance(result.empirical_pmf, uniform), 0.12);
}

TEST(HarnessTest, ReadBenchEnvDefaults) {
  const BenchEnv env = ReadBenchEnv(7, 0.25, 100);
  // No env vars set in the test environment: fall back to defaults.
  EXPECT_EQ(env.trials, 7);
  EXPECT_DOUBLE_EQ(env.scale, 0.25);
  EXPECT_EQ(env.samples, 100u);
  EXPECT_GT(env.seed, 0u);
}

TEST(HarnessTest, SharedCacheCutsMeanQueryCost) {
  // The acceptance bar for the backend redesign: parallel trials sharing
  // one QueryCache pay measurably fewer queries than isolated trials.
  const SocialDataset ds = TinyDataset();
  ErrorVsCostConfig config;
  config.sample_counts = {5, 10};
  config.trials = 6;
  config.seed = 7;
  config.sampler_spec =
      "we:srw?diameter=" + std::to_string(ds.diameter_estimate);

  const auto isolated = RunErrorVsCost(ds, {"avg_deg", ""}, config);
  ASSERT_TRUE(isolated.ok());

  config.session.query_cache = std::make_shared<QueryCache>();
  const auto shared = RunErrorVsCost(ds, {"avg_deg", ""}, config);
  ASSERT_TRUE(shared.ok());

  ASSERT_EQ(isolated->size(), shared->size());
  for (size_t i = 0; i < shared->size(); ++i) {
    EXPECT_EQ((*shared)[i].completed_trials, config.trials);
    EXPECT_LT((*shared)[i].mean_query_cost,
              0.7 * (*isolated)[i].mean_query_cost);
  }
  EXPECT_GT(config.session.query_cache->hits(), 0u);
}

TEST(HarnessTest, ShardedOriginIsSharedAcrossTrialsAndChangesNoResults) {
  // A template with shards builds ONE sharded origin all trials talk to;
  // sharding changes where queries are answered, never the curve.
  const SocialDataset ds = TinyDataset();
  ErrorVsCostConfig config;
  config.sample_counts = {5};
  config.trials = 3;
  config.seed = 13;
  config.sampler_spec =
      "we:srw?diameter=" + std::to_string(ds.diameter_estimate);
  const auto unsharded = RunErrorVsCost(ds, {"avg_deg", ""}, config);
  ASSERT_TRUE(unsharded.ok());

  config.session.shards = 4;
  config.session.partition = ShardPartition::kDegreeBalanced;
  const auto sharded = RunErrorVsCost(ds, {"avg_deg", ""}, config);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->size(), 1u);
  EXPECT_EQ((*sharded)[0].completed_trials, config.trials);
  // Note: the curves are not numerically identical to `unsharded` — that
  // run used private per-trial backends with per-trial server seeds, while
  // the sharded origin is one shared service — but both must be sane.
  EXPECT_GT((*sharded)[0].mean_query_cost, 0.0);
  EXPECT_GE((*unsharded)[0].mean_query_cost, 0.0);
}

TEST(HarnessTest, SnapshotOriginGivesTheInMemoryCurve) {
  // A snapshot template is one shared, mmap'd origin for every trial; it
  // must serve the curve an in-memory shared origin gives.
  const SocialDataset ds = TinyDataset();
  const std::string path =
      ::testing::TempDir() + "wnw_harness_test_tiny.snap";
  ASSERT_TRUE(WriteGraphSnapshot(ds.graph, path).ok());
  ErrorVsCostConfig config;
  config.sample_counts = {5, 10};
  config.trials = 3;
  config.seed = 19;
  config.threads = 1;  // sums the trials in one order on both sides
  config.sampler_spec =
      "we:srw?diameter=" + std::to_string(ds.diameter_estimate);

  config.session.backend = std::make_shared<InMemoryBackend>(&ds.graph);
  const auto memory = RunErrorVsCost(ds, {"avg_deg", ""}, config);
  config.session.backend = nullptr;
  config.session.snapshot = path;
  const auto snapshot = RunErrorVsCost(ds, {"avg_deg", ""}, config);
  std::remove(path.c_str());

  ASSERT_TRUE(memory.ok());
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(memory->size(), snapshot->size());
  for (size_t i = 0; i < memory->size(); ++i) {
    EXPECT_EQ((*snapshot)[i].completed_trials, config.trials);
    EXPECT_EQ((*snapshot)[i].mean_query_cost, (*memory)[i].mean_query_cost);
    EXPECT_EQ((*snapshot)[i].mean_total_queries,
              (*memory)[i].mean_total_queries);
    EXPECT_EQ((*snapshot)[i].mean_rel_error, (*memory)[i].mean_rel_error);
  }
}

TEST(HarnessTest, LatencyScenarioShowsUpInWaitedSeconds) {
  const SocialDataset ds = TinyDataset();
  ErrorVsCostConfig config;
  config.sample_counts = {5};
  config.trials = 2;
  config.seed = 11;
  config.sampler_spec =
      "we:srw?diameter=" + std::to_string(ds.diameter_estimate);
  LatencyConfig latency;
  latency.mean_ms = 25.0;
  config.session.latency = latency;
  const auto curve = RunErrorVsCost(ds, {"avg_deg", ""}, config);
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->size(), 1u);
  EXPECT_EQ((*curve)[0].completed_trials, 2);
  EXPECT_GT((*curve)[0].mean_waited_seconds, 0.0);
}

TEST(HarnessTest, RestrictedAccessStillSamples) {
  const SocialDataset ds = TinyDataset();
  WalkEstimateOptions wopts;
  wopts.diameter_bound = ds.diameter_estimate + 2;
  const auto spec = MakeWalkEstimateSpec("srw", wopts);
  ErrorVsCostConfig config;
  config.sample_counts = {5, 10};
  config.trials = 3;
  config.session.access.restriction = NeighborRestriction::kTruncated;
  // "even 100 ensures connectivity"
  config.session.access.max_neighbors = 100;
  const auto curve = RunErrorVsCost(ds, spec, {"avg_deg", ""}, config);
  for (const auto& p : curve) {
    EXPECT_EQ(p.completed_trials, 3);
    EXPECT_GT(p.mean_query_cost, 0.0);
  }
}

}  // namespace
}  // namespace wnw
