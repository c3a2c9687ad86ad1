// The sampler registry: one place where node samplers are named, configured,
// and constructed. The paper's pitch is that WALK-ESTIMATE is a swap-in
// replacement for any burn-in random-walk sampler (§3, §6.1); the registry
// makes "swap" literal — every sampler is reachable through a compact spec
// string
//
//   <sampler>[:<walk>][?key=value&key=value...]
//
// e.g. "we:mhrw?variant=crawl&diameter=10", "burnin:srw?max_steps=20000",
// "longrun:srw?thinning=4", "we-path:mhrw". The walk part is any
// ParseTransitionDesign() spec (srw | mhrw | lazy | maxdeg:<bound>) and
// defaults to srw. New samplers register a factory under a name and are
// immediately usable from every bench, example, and the CLI.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/path_sampler.h"
#include "core/samplers.h"
#include "core/spec_keys.h"
#include "core/walk_estimate.h"
#include "estimation/aggregates.h"
#include "util/status.h"

namespace wnw {

/// A parsed sampler spec: the registry key, the input-walk design spec, and
/// the per-sampler options as string key/value pairs. Formats back to the
/// canonical spec string (keys sorted), so parse -> format -> parse is the
/// identity on the parsed form.
struct SamplerConfig {
  std::string sampler;
  std::string walk = "srw";
  std::map<std::string, std::string, std::less<>> params = {};

  /// Parses a spec string. Syntax errors (empty sampler name, missing '=',
  /// duplicate or empty keys) come back as InvalidArgument; whether the
  /// sampler name and keys are *known* is checked at construction time by
  /// the registered factory.
  static Result<SamplerConfig> Parse(std::string_view spec);

  /// The canonical spec string for this config.
  std::string ToSpec() const;

  void Set(std::string key, std::string value);

  bool operator==(const SamplerConfig&) const = default;
};

/// String-keyed factory registry for samplers. Thread-safe; the global
/// instance comes pre-loaded with the built-ins ("burnin", "longrun", "walk",
/// "we", "we-path"). New sampler families (stratified walks, indirect jumps, ...)
/// register once here and become addressable from every spec string.
class SamplerRegistry {
 public:
  /// Builds a sampler bound to an access session. `design` is the parsed
  /// config.walk transition design and outlives the sampler; the factory
  /// validates config.params against the entry's keys and returns
  /// InvalidArgument on unknown or malformed options.
  using Factory = std::function<Result<std::unique_ptr<Sampler>>(
      const SamplerConfig& config, AccessInterface* access,
      const TransitionDesign* design, NodeId start, uint64_t seed)>;

  struct Entry {
    std::string summary;  // one-line help: what the sampler does
    Factory make;
    /// The spec keys the factory takes, for --help and the docs check.
    std::vector<SpecField> keys = {};
  };

  /// The process-wide registry, built-ins included.
  static SamplerRegistry& Global();

  /// Registers a sampler; fails with FailedPrecondition on duplicate names
  /// and InvalidArgument when its keys repeat a key or reuse a
  /// session-reserved one (ReservedSessionKeys()).
  Status Register(std::string name, Entry entry);

  bool Contains(std::string_view name) const;
  std::vector<std::string> Names() const;

  /// One-line summary for a registered sampler ("" when unknown).
  std::string Summary(std::string_view name) const;
  /// A registered sampler's spec keys (empty when unknown).
  std::vector<SpecField> Keys(std::string_view name) const;

  /// Looks up config.sampler and invokes its factory. Unknown sampler names
  /// return NotFound listing the registered ones.
  Result<std::unique_ptr<Sampler>> Create(const SamplerConfig& config,
                                          AccessInterface* access,
                                          const TransitionDesign* design,
                                          NodeId start, uint64_t seed) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// --- option codecs -----------------------------------------------------------
// SamplerConfig params <-> the typed option structs, driven by each
// sampler's key rows. The readers check exactly what the registered
// factories check (same keys, ranges and cross-field rules; unknown keys
// rejected). The builders emit only values that differ from the defaults,
// so their specs are compact and round-trip.

Result<BurnInSampler::Options> ReadBurnInOptions(const SamplerConfig& config);
Result<OneLongRunSampler::Options> ReadLongRunOptions(
    const SamplerConfig& config);
Status ReadFixedWalkOptions(const SamplerConfig& config,
                            FixedWalkSampler::Options* out);
Result<WalkEstimateOptions> ReadWalkEstimateOptions(const SamplerConfig& config);
Result<WalkEstimatePathSampler::Options> ReadWalkEstimatePathOptions(
    const SamplerConfig& config);

SamplerConfig MakeBurnInConfig(std::string walk,
                               const BurnInSampler::Options& options = {});
SamplerConfig MakeLongRunConfig(std::string walk,
                                const OneLongRunSampler::Options& options = {});
SamplerConfig MakeFixedWalkConfig(
    std::string walk, const FixedWalkSampler::Options& options = {});
SamplerConfig MakeWalkEstimateConfig(
    std::string walk, WalkEstimateOptions options = {},
    WalkEstimateVariant variant = WalkEstimateVariant::kFull);
SamplerConfig MakeWalkEstimatePathConfig(
    std::string walk, const WalkEstimatePathSampler::Options& options = {});

/// Which aggregate correction applies to samples drawn from walk design
/// `walk_spec`: degree-proportional designs (srw, lazy) need the
/// Hansen-Hurwitz weighting; uniform-target designs (mhrw, maxdeg) take the
/// arithmetic mean.
TargetBias BiasForWalkSpec(std::string_view walk_spec);

}  // namespace wnw
