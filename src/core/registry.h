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
// MakeTransitionDesign() spec (srw | mhrw | lazy | maxdeg:<bound>) and
// defaults to srw. New samplers register a factory under a name and are
// immediately usable from every bench, example, and the CLI.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/path_sampler.h"
#include "core/samplers.h"
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
  std::map<std::string, std::string, std::less<>> params;

  /// Parses a spec string. Syntax errors (empty sampler name, missing '=',
  /// duplicate or empty keys) come back as InvalidArgument; whether the
  /// sampler name and keys are *known* is checked at construction time by
  /// the registered factory.
  static Result<SamplerConfig> Parse(std::string_view spec);

  /// The canonical spec string for this config.
  std::string ToSpec() const;

  // Typed param setters (values are stored as their shortest exact string
  // form so specs round-trip).
  void Set(std::string key, std::string value);
  void SetInt(std::string key, int64_t value);
  void SetUint(std::string key, uint64_t value);
  void SetDouble(std::string key, double value);
  void SetBool(std::string key, bool value);

  bool operator==(const SamplerConfig&) const = default;
};

/// Helper for factories reading SamplerConfig::params into options structs.
/// Each Read() consumes a key (absent keys leave *out untouched and return
/// false); Finish() reports the first malformed value or any key nobody
/// consumed — so misspelled options fail loudly instead of being ignored.
class ParamReader {
 public:
  explicit ParamReader(const SamplerConfig& config) : config_(config) {}

  bool Read(std::string_view key, int* out);
  bool Read(std::string_view key, uint64_t* out);
  bool Read(std::string_view key, double* out);
  bool Read(std::string_view key, bool* out);  // accepts 0/1/true/false
  bool Read(std::string_view key, std::string* out);

  Status Finish() const;

 private:
  const std::string* Consume(std::string_view key);
  void Fail(std::string_view key, std::string_view expected);

  const SamplerConfig& config_;
  std::set<std::string, std::less<>> consumed_;
  Status status_;
};

/// String-keyed factory registry for samplers. Thread-safe; the global
/// instance comes pre-loaded with the built-ins ("burnin", "longrun", "walk",
/// "we", "we-path"). New sampler families (stratified walks, indirect jumps, ...)
/// register once here and become addressable from every spec string.
class SamplerRegistry {
 public:
  /// Builds a sampler bound to an access session. `design` is the parsed
  /// config.walk transition design and outlives the sampler; the factory
  /// validates config.params and returns InvalidArgument on unknown or
  /// malformed options.
  using Factory = std::function<Result<std::unique_ptr<Sampler>>(
      const SamplerConfig& config, AccessInterface* access,
      const TransitionDesign* design, NodeId start, uint64_t seed)>;

  struct Entry {
    std::string summary;  // one-line help: options and their meaning
    Factory make;
  };

  /// The process-wide registry, built-ins included.
  static SamplerRegistry& Global();

  /// Registers a sampler; fails with FailedPrecondition on duplicate names.
  Status Register(std::string name, Entry entry);

  bool Contains(std::string_view name) const;
  std::vector<std::string> Names() const;

  /// One-line summary for a registered sampler ("" when unknown).
  std::string Summary(std::string_view name) const;

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

// --- config builders ---------------------------------------------------------
// Programmatic options -> SamplerConfig, emitting only values that differ
// from the defaults (compact, round-trippable specs). These are what the
// experiment harness wrappers use.

SamplerConfig MakeBurnInConfig(std::string walk,
                               const BurnInSampler::Options& options = {});
SamplerConfig MakeLongRunConfig(std::string walk,
                                const OneLongRunSampler::Options& options = {});
SamplerConfig MakeWalkEstimateConfig(
    std::string walk, WalkEstimateOptions options = {},
    WalkEstimateVariant variant = WalkEstimateVariant::kFull);
SamplerConfig MakeWalkEstimatePathConfig(
    std::string walk, const WalkEstimatePathSampler::Options& options = {});

// --- option codecs -----------------------------------------------------------
// Parse a SamplerConfig's params into the typed option structs exactly as the
// registered factories do (same keys, same validation, unknown keys rejected),
// for callers that need the typed options without constructing a Sampler
// (the block engine's flat `walk` path, the benchmarks).

Status ReadFixedWalkOptions(const SamplerConfig& config,
                            FixedWalkSampler::Options* out);
Result<WalkEstimateOptions> ReadWalkEstimateOptions(const SamplerConfig& config);

/// Spec-string key for a Figure 9 variant ("full", "none", "crawl",
/// "weighted") and its inverse.
std::string_view VariantKey(WalkEstimateVariant variant);
Result<WalkEstimateVariant> ParseVariantKey(std::string_view key);

/// Which aggregate correction applies to samples drawn from walk design
/// `walk_spec`: degree-proportional designs (srw, lazy) need the
/// Hansen-Hurwitz weighting; uniform-target designs (mhrw, maxdeg) take the
/// arithmetic mean.
TargetBias BiasForWalkSpec(std::string_view walk_spec);

}  // namespace wnw
