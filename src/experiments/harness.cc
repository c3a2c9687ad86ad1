#include "experiments/harness.h"

#include <algorithm>
#include <mutex>

#include "estimation/ground_truth.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace wnw {

Result<SamplerSpec> MakeSamplerSpec(const std::string& spec_string) {
  WNW_ASSIGN_OR_RETURN(SamplerConfig config,
                       SamplerConfig::Parse(spec_string));
  // Validate beyond syntax so callers get an error here instead of a
  // warning-logged zero-trial run later.
  if (!SamplerRegistry::Global().Contains(config.sampler)) {
    return Status::NotFound("unknown sampler '" + config.sampler + "' in '" +
                            spec_string + "'");
  }
  WNW_RETURN_IF_ERROR(ParseTransitionDesign(config.walk).status());
  SamplerSpec spec;
  spec.label = config.ToSpec();
  spec.config = std::move(config);
  return spec;
}

SamplerSpec MakeBurnInSpec(const std::string& design_spec,
                           BurnInSampler::Options options) {
  SamplerSpec spec;
  spec.label = std::string(ParseTransitionDesign(design_spec).value()->name());
  spec.config = MakeBurnInConfig(design_spec, options);
  return spec;
}

SamplerSpec MakeWalkEstimateSpec(const std::string& design_spec,
                                 WalkEstimateOptions options,
                                 WalkEstimateVariant variant,
                                 const std::string& label_suffix) {
  WNW_CHECK(ParseTransitionDesign(design_spec).ok());
  SamplerSpec spec;
  spec.label = std::string(VariantName(variant)) +
               (label_suffix.empty() ? "" : "-" + label_suffix);
  spec.config = MakeWalkEstimateConfig(design_spec, options, variant);
  return spec;
}

double GroundTruth(const SocialDataset& dataset,
                   const AggregateSpec& aggregate) {
  if (aggregate.column.empty()) return TrueAverageDegree(dataset.graph);
  return TrueAttributeAverage(dataset.attrs, aggregate.column).value();
}

std::vector<CurvePoint> RunErrorVsCost(const SocialDataset& dataset,
                                       const SamplerSpec& sampler,
                                       const AggregateSpec& aggregate,
                                       const ErrorVsCostConfig& config) {
  WNW_CHECK(!config.sample_counts.empty());
  WNW_CHECK(std::is_sorted(config.sample_counts.begin(),
                           config.sample_counts.end()));
  const int max_samples = config.sample_counts.back();
  const double truth = GroundTruth(dataset, aggregate);
  const Graph& graph = dataset.graph;

  // Attribute and target-weight readers. A real analyst learns theta(u) from
  // u's profile page, which the sampler necessarily accessed to sample u.
  std::span<const double> column;
  if (!aggregate.column.empty()) {
    column = dataset.attrs.Column(aggregate.column).value();
  }
  auto theta = [&](NodeId u) -> double {
    return aggregate.column.empty() ? static_cast<double>(graph.Degree(u))
                                    : column[u];
  };
  auto weight = [&](NodeId u) -> double {
    return static_cast<double>(graph.Degree(u));
  };

  std::vector<CurvePoint> points(config.sample_counts.size());
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].samples = config.sample_counts[i];
  }
  std::mutex mu;

  // A shared resource in the template means all trials talk to ONE
  // simulated service: resolve it once, as RunWalkerPool does. The sampler's
  // own spec keys still resolve per trial, and `async` stays per trial.
  SessionOptions shared = config.session;
  if (shared.backend != nullptr || shared.query_cache != nullptr ||
      !shared.cache_file.empty() || !shared.snapshot.empty() ||
      shared.shards >= 1) {
    SamplerConfig no_keys;
    shared.async.reset();
    const Status resolved =
        ResolveSessionResources(&graph, &no_keys, &shared);
    if (!resolved.ok()) {
      WNW_LOG(kError) << sampler.label << ": shared session resources: "
                      << resolved.ToString();
      return points;  // zero completed trials, like other logged failures
    }
    shared.async = config.session.async;
  }

  ParallelFor(
      static_cast<size_t>(config.trials),
      [&](size_t trial) {
        Rng trial_rng(Mix64(config.seed ^ (0xabcd0000u + trial)));
        SessionOptions session_opts = shared;
        session_opts.access.seed = trial_rng.Next();
        session_opts.seed = trial_rng.Next();
        auto session_or = SamplingSession::Open(&graph, sampler.config,
                                                session_opts);
        if (!session_or.ok()) {
          WNW_LOG(kWarning) << sampler.label << ": session open failed: "
                            << session_or.status().ToString();
          return;
        }
        SamplingSession& session = **session_or;

        std::vector<NodeId> samples;
        samples.reserve(static_cast<size_t>(max_samples));
        size_t checkpoint = 0;
        struct TrialCosts {
          uint64_t unique = 0;
          uint64_t total = 0;
          double waited = 0.0;
        };
        std::vector<TrialCosts> costs(points.size());
        std::vector<double> errors(points.size(),
                                   std::numeric_limits<double>::quiet_NaN());
        while (samples.size() < static_cast<size_t>(max_samples)) {
          auto drawn = session.Draw();
          if (!drawn.ok()) {
            WNW_LOG(kWarning) << sampler.label
                              << ": draw failed: " << drawn.status().ToString();
            break;
          }
          samples.push_back(drawn.value());
          while (checkpoint < points.size() &&
                 samples.size() ==
                     static_cast<size_t>(points[checkpoint].samples)) {
            const double estimate =
                EstimateAverage(samples, sampler.bias(), theta, weight);
            const CostMeter& meter = session.access().meter();
            costs[checkpoint] = {meter.unique_cost, meter.total_queries,
                                 meter.waited_seconds};
            errors[checkpoint] = RelativeError(estimate, truth);
            ++checkpoint;
          }
        }

        std::lock_guard<std::mutex> lock(mu);
        for (size_t i = 0; i < checkpoint; ++i) {
          points[i].mean_query_cost += static_cast<double>(costs[i].unique);
          points[i].mean_total_queries += static_cast<double>(costs[i].total);
          points[i].mean_waited_seconds += costs[i].waited;
          points[i].mean_rel_error += errors[i];
          points[i].completed_trials += 1;
        }
      },
      config.threads);

  for (auto& p : points) {
    if (p.completed_trials > 0) {
      p.mean_query_cost /= p.completed_trials;
      p.mean_total_queries /= p.completed_trials;
      p.mean_waited_seconds /= p.completed_trials;
      p.mean_rel_error /= p.completed_trials;
    }
  }
  return points;
}

Result<std::vector<CurvePoint>> RunErrorVsCost(
    const SocialDataset& dataset, const AggregateSpec& aggregate,
    const ErrorVsCostConfig& config) {
  if (config.sampler_spec.empty()) {
    return Status::InvalidArgument(
        "ErrorVsCostConfig::sampler_spec is empty; set it or pass a "
        "SamplerSpec explicitly");
  }
  WNW_ASSIGN_OR_RETURN(SamplerSpec spec, MakeSamplerSpec(config.sampler_spec));
  return RunErrorVsCost(dataset, spec, aggregate, config);
}

BiasRunResult RunEmpiricalDistribution(const SocialDataset& dataset,
                                       const SamplerSpec& sampler,
                                       uint64_t num_samples, uint64_t seed,
                                       int threads) {
  const Graph& graph = dataset.graph;
  if (threads <= 0) threads = DefaultThreadCount();
  const size_t workers =
      std::max<size_t>(1, std::min<size_t>(static_cast<size_t>(threads),
                                           num_samples));
  std::vector<EmpiricalDistribution> partials(
      workers, EmpiricalDistribution(graph.num_nodes()));
  std::vector<uint64_t> costs(workers, 0);

  ParallelFor(
      workers,
      [&](size_t w) {
        const uint64_t quota =
            num_samples / workers + (w < num_samples % workers ? 1 : 0);
        if (quota == 0) return;
        Rng rng(Mix64(seed ^ (0xb1a5'0000u + w)));
        SessionOptions session_opts;
        session_opts.seed = rng.Next();
        auto session_or =
            SamplingSession::Open(&graph, sampler.config, session_opts);
        if (!session_or.ok()) {
          WNW_LOG(kWarning) << sampler.label << ": session open failed: "
                            << session_or.status().ToString();
          return;
        }
        SamplingSession& session = **session_or;
        for (uint64_t i = 0; i < quota; ++i) {
          auto drawn = session.Draw();
          if (!drawn.ok()) break;
          partials[w].Add(drawn.value());
        }
        costs[w] = session.access().query_cost();
      },
      static_cast<int>(workers));

  BiasRunResult out;
  std::vector<uint64_t> merged(graph.num_nodes(), 0);
  for (size_t w = 0; w < workers; ++w) {
    const auto counts = partials[w].counts();
    for (NodeId u = 0; u < graph.num_nodes(); ++u) merged[u] += counts[u];
    out.total_samples += partials[w].total();
    out.total_query_cost += costs[w];
  }
  out.empirical_pmf.assign(graph.num_nodes(), 0.0);
  if (out.total_samples > 0) {
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      out.empirical_pmf[u] = static_cast<double>(merged[u]) /
                             static_cast<double>(out.total_samples);
    }
  }
  return out;
}

BenchEnv ReadBenchEnv(int default_trials, double default_scale,
                      uint64_t default_samples) {
  BenchEnv env;
  env.trials = static_cast<int>(
      EnvUint64("WNW_TRIALS", static_cast<uint64_t>(default_trials)));
  env.seed = EnvUint64("WNW_SEED", 20260611u);
  env.scale = EnvDouble("WNW_SCALE", default_scale);
  env.samples = EnvUint64("WNW_SAMPLES", default_samples);
  return env;
}

}  // namespace wnw
