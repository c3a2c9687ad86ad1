// The experiment harness behind every relative-error figure (Figs. 6-11) and
// the exact-bias study (Table 1 / Fig. 12): builds per-trial sampling
// sessions, draws samples, estimates AVG aggregates at checkpoint sample
// counts, and averages query cost / relative error across trials (the paper
// averages 100 runs per data point; trials are configurable via WNW_TRIALS).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/session.h"
#include "datasets/social_datasets.h"
#include "estimation/aggregates.h"
#include "estimation/empirical.h"

namespace wnw {

/// A labelled sampler configuration for experiment tables. Each trial opens
/// a fresh SamplingSession from `config` through the registry.
struct SamplerSpec {
  std::string label;
  SamplerConfig config;

  /// Which aggregate correction applies to this sampler's output. Derived
  /// from the walk design so it can never disagree with `config`.
  TargetBias bias() const { return BiasForWalkSpec(config.walk); }
};

/// Builds a SamplerSpec from a registry spec string ("we:mhrw?diameter=8");
/// the label is the canonical spec and the bias follows the walk design.
Result<SamplerSpec> MakeSamplerSpec(const std::string& spec_string);

/// Ready-made specs for the paper's contenders — thin wrappers over the
/// registry config builders, with the paper's figure labels.
SamplerSpec MakeBurnInSpec(const std::string& design_spec,
                           BurnInSampler::Options options = {});
SamplerSpec MakeWalkEstimateSpec(const std::string& design_spec,
                                 WalkEstimateOptions options,
                                 WalkEstimateVariant variant =
                                     WalkEstimateVariant::kFull,
                                 const std::string& label_suffix = "");

/// The aggregate under estimation. column == "" means node degree.
struct AggregateSpec {
  std::string label;
  std::string column;
};

struct ErrorVsCostConfig {
  std::vector<int> sample_counts = {10, 20, 40, 80, 160};
  int trials = 10;
  uint64_t seed = 42;
  int threads = 0;  // 0 = hardware default

  /// Every trial's session options, the way WalkerPoolOptions::session
  /// works; `seed` and `access.seed` are drawn per trial from `seed` above.
  /// A template that names a shared resource (an explicit backend, a query
  /// cache or cache file, a snapshot, or shards >= 1) is resolved once
  /// through ResolveSessionResources, and every trial talks to that one
  /// service: trials sharing a query cache reuse each other's neighbor
  /// lists (Zhou et al.-style history reuse). Otherwise each trial opens
  /// its own stack with its own server randomness, the paper's protocol of
  /// isolated trials. An explicit `executor` is shared by every trial;
  /// `async` builds one per trial, as for any session. A resource that
  /// fails to resolve is logged and the run completes zero trials.
  SessionOptions session;

  /// Registry spec string ("we:mhrw?diameter=8") used by the overload of
  /// RunErrorVsCost that takes no SamplerSpec.
  std::string sampler_spec;
};

struct CurvePoint {
  int samples = 0;
  double mean_query_cost = 0.0;     // unique backend fetches (paper metric)
  double mean_total_queries = 0.0;  // all API invocations incl. cache hits
  double mean_waited_seconds = 0.0; // simulated latency + rate-limit waiting
  double mean_rel_error = 0.0;
  int completed_trials = 0;
};

/// Runs the error-vs-cost experiment: for each trial, draw
/// max(sample_counts) samples and record (cost, relative error) at each
/// checkpoint; report per-checkpoint means across trials.
std::vector<CurvePoint> RunErrorVsCost(const SocialDataset& dataset,
                                       const SamplerSpec& sampler,
                                       const AggregateSpec& aggregate,
                                       const ErrorVsCostConfig& config);

/// Spec-string convenience: runs config.sampler_spec through the registry.
Result<std::vector<CurvePoint>> RunErrorVsCost(const SocialDataset& dataset,
                                               const AggregateSpec& aggregate,
                                               const ErrorVsCostConfig& config);

/// Exact ground truth for an AggregateSpec on a dataset.
double GroundTruth(const SocialDataset& dataset,
                   const AggregateSpec& aggregate);

/// Draws `num_samples` samples (split across workers, each with its own
/// session and start node) and accumulates the empirical node-visit
/// distribution — the Table 1 / Figure 12 measurement.
struct BiasRunResult {
  std::vector<double> empirical_pmf;
  uint64_t total_samples = 0;
  uint64_t total_query_cost = 0;
};
BiasRunResult RunEmpiricalDistribution(const SocialDataset& dataset,
                                       const SamplerSpec& sampler,
                                       uint64_t num_samples, uint64_t seed,
                                       int threads = 0);

/// Shared env-var knobs for the bench binaries:
/// WNW_TRIALS, WNW_SEED, WNW_SCALE, WNW_SAMPLES, WNW_THREADS.
struct BenchEnv {
  int trials;
  uint64_t seed;
  double scale;
  uint64_t samples;
};
BenchEnv ReadBenchEnv(int default_trials, double default_scale,
                      uint64_t default_samples = 0);

}  // namespace wnw
