#include "core/registry.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace wnw {

namespace {

// Shortest decimal string that parses back to exactly `value`.
std::string FormatDouble(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  return std::string(buf, end);
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

// --- SamplerConfig -----------------------------------------------------------

Result<SamplerConfig> SamplerConfig::Parse(std::string_view spec) {
  SamplerConfig config;
  const size_t query_pos = spec.find('?');
  std::string_view head = spec.substr(0, query_pos);

  // The walk spec may itself contain ':' (maxdeg:<bound>), so split on the
  // first colon only.
  const size_t colon = head.find(':');
  config.sampler = std::string(TrimString(head.substr(0, colon)));
  if (config.sampler.empty()) {
    return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                   "': empty sampler name");
  }
  if (colon != std::string_view::npos) {
    config.walk = std::string(TrimString(head.substr(colon + 1)));
    if (config.walk.empty()) {
      return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                     "': empty walk design after ':'");
    }
  }

  if (query_pos == std::string_view::npos) return config;
  std::string_view query = spec.substr(query_pos + 1);
  for (std::string_view pair : SplitString(query, "&")) {
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                     "': parameter '" + std::string(pair) +
                                     "' is not key=value");
    }
    std::string key(TrimString(pair.substr(0, eq)));
    std::string value(TrimString(pair.substr(eq + 1)));
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                     "': empty key or value in '" +
                                     std::string(pair) + "'");
    }
    if (!config.params.emplace(std::move(key), std::move(value)).second) {
      return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                     "': duplicate parameter '" +
                                     std::string(pair.substr(0, eq)) + "'");
    }
  }
  return config;
}

std::string SamplerConfig::ToSpec() const {
  std::string out = sampler + ":" + walk;
  char sep = '?';
  for (const auto& [key, value] : params) {
    out += sep;
    out += key;
    out += '=';
    out += value;
    sep = '&';
  }
  return out;
}

void SamplerConfig::Set(std::string key, std::string value) {
  params[std::move(key)] = std::move(value);
}

void SamplerConfig::SetInt(std::string key, int64_t value) {
  Set(std::move(key), std::to_string(value));
}

void SamplerConfig::SetUint(std::string key, uint64_t value) {
  Set(std::move(key), std::to_string(value));
}

void SamplerConfig::SetDouble(std::string key, double value) {
  Set(std::move(key), FormatDouble(value));
}

void SamplerConfig::SetBool(std::string key, bool value) {
  Set(std::move(key), value ? "1" : "0");
}

// --- ParamReader -------------------------------------------------------------

const std::string* ParamReader::Consume(std::string_view key) {
  const auto it = config_.params.find(key);
  if (it == config_.params.end()) return nullptr;
  consumed_.insert(it->first);
  return &it->second;
}

void ParamReader::Fail(std::string_view key, std::string_view expected) {
  if (!status_.ok()) return;  // keep the first error
  status_ = Status::InvalidArgument(
      "sampler '" + config_.sampler + "': parameter '" + std::string(key) +
      "=" + config_.params.find(key)->second + "' is not " +
      std::string(expected));
}

bool ParamReader::Read(std::string_view key, int* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  uint64_t v = 0;
  if (!ParseUint64(*raw, &v) || v > static_cast<uint64_t>(INT32_MAX)) {
    Fail(key, "a non-negative integer");
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParamReader::Read(std::string_view key, uint64_t* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  if (!ParseUint64(*raw, out)) {
    Fail(key, "a non-negative integer");
    return false;
  }
  return true;
}

bool ParamReader::Read(std::string_view key, double* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  double value = 0.0;
  if (!ParseDouble(*raw, &value) || !std::isfinite(value)) {
    Fail(key, "a finite number");
    return false;
  }
  *out = value;
  return true;
}

bool ParamReader::Read(std::string_view key, bool* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  if (*raw == "1" || *raw == "true") {
    *out = true;
  } else if (*raw == "0" || *raw == "false") {
    *out = false;
  } else {
    Fail(key, "a boolean (0/1/true/false)");
    return false;
  }
  return true;
}

bool ParamReader::Read(std::string_view key, std::string* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  *out = *raw;
  return true;
}

Status ParamReader::Finish() const {
  if (!status_.ok()) return status_;
  for (const auto& [key, value] : config_.params) {
    if (!consumed_.contains(key)) {
      return Status::InvalidArgument("sampler '" + config_.sampler +
                                     "' does not take parameter '" + key +
                                     "'");
    }
  }
  return Status::OK();
}

// --- variants / bias ---------------------------------------------------------

std::string_view VariantKey(WalkEstimateVariant variant) {
  switch (variant) {
    case WalkEstimateVariant::kFull:
      return "full";
    case WalkEstimateVariant::kNone:
      return "none";
    case WalkEstimateVariant::kCrawlOnly:
      return "crawl";
    case WalkEstimateVariant::kWeightedOnly:
      return "weighted";
  }
  return "full";
}

Result<WalkEstimateVariant> ParseVariantKey(std::string_view key) {
  if (key == "full") return WalkEstimateVariant::kFull;
  if (key == "none") return WalkEstimateVariant::kNone;
  if (key == "crawl") return WalkEstimateVariant::kCrawlOnly;
  if (key == "weighted") return WalkEstimateVariant::kWeightedOnly;
  return Status::InvalidArgument("unknown variant '" + std::string(key) +
                                 "' (expected full|none|crawl|weighted)");
}

TargetBias BiasForWalkSpec(std::string_view walk_spec) {
  const std::string_view family = walk_spec.substr(0, walk_spec.find(':'));
  return family == "srw" || family == "lazy" ? TargetBias::kStationaryWeighted
                                             : TargetBias::kUniform;
}

// --- option <-> param codecs -------------------------------------------------

namespace {

void ReadBurnInParams(ParamReader& reader, BurnInSampler::Options* options) {
  reader.Read("check_interval", &options->check_interval);
  reader.Read("min_steps", &options->min_steps);
  reader.Read("max_steps", &options->max_steps);
  reader.Read("geweke_first", &options->geweke.first_frac);
  reader.Read("geweke_last", &options->geweke.last_frac);
  reader.Read("geweke_threshold", &options->geweke.threshold);
  reader.Read("geweke_min", &options->geweke.min_samples);
}

void EncodeBurnInParams(const BurnInSampler::Options& options,
                        SamplerConfig* config) {
  const BurnInSampler::Options defaults;
  if (options.check_interval != defaults.check_interval) {
    config->SetInt("check_interval", options.check_interval);
  }
  if (options.min_steps != defaults.min_steps) {
    config->SetInt("min_steps", options.min_steps);
  }
  if (options.max_steps != defaults.max_steps) {
    config->SetInt("max_steps", options.max_steps);
  }
  if (options.geweke.first_frac != defaults.geweke.first_frac) {
    config->SetDouble("geweke_first", options.geweke.first_frac);
  }
  if (options.geweke.last_frac != defaults.geweke.last_frac) {
    config->SetDouble("geweke_last", options.geweke.last_frac);
  }
  if (options.geweke.threshold != defaults.geweke.threshold) {
    config->SetDouble("geweke_threshold", options.geweke.threshold);
  }
  if (options.geweke.min_samples != defaults.geweke.min_samples) {
    config->SetUint("geweke_min", options.geweke.min_samples);
  }
}

Result<WalkEstimateOptions> ReadWalkEstimateParams(ParamReader& reader) {
  std::string variant_key(VariantKey(WalkEstimateVariant::kFull));
  reader.Read("variant", &variant_key);
  WNW_ASSIGN_OR_RETURN(WalkEstimateVariant variant,
                       ParseVariantKey(variant_key));
  WalkEstimateOptions options;
  ApplyVariant(variant, &options);
  reader.Read("walk_length", &options.walk_length);
  reader.Read("diameter", &options.diameter_bound);
  reader.Read("crawl_hops", &options.estimate.crawl_hops);
  // Explicit heuristic switches override the variant.
  reader.Read("crawl", &options.estimate.use_crawl);
  reader.Read("weighted", &options.estimate.use_weighted);
  reader.Read("epsilon", &options.estimate.epsilon);
  reader.Read("base_reps", &options.estimate.base_reps);
  reader.Read("max_extra_reps", &options.estimate.max_extra_reps);
  reader.Read("target_rse", &options.estimate.target_rse);
  if (reader.Read("scale", &options.rejection.manual_scale)) {
    options.rejection.mode = ScaleMode::kManual;
  }
  reader.Read("percentile", &options.rejection.percentile);
  reader.Read("max_candidates", &options.max_candidates_per_draw);
  return options;
}

void EncodeWalkEstimateParams(const WalkEstimateOptions& options,
                              WalkEstimateVariant variant,
                              SamplerConfig* config) {
  // The baseline is a default options struct with the same variant applied,
  // so only genuine overrides are emitted.
  WalkEstimateOptions defaults;
  ApplyVariant(variant, &defaults);
  if (variant != WalkEstimateVariant::kFull) {
    config->Set("variant", std::string(VariantKey(variant)));
  }
  if (options.walk_length != defaults.walk_length) {
    config->SetInt("walk_length", options.walk_length);
  }
  if (options.diameter_bound != defaults.diameter_bound) {
    config->SetInt("diameter", options.diameter_bound);
  }
  if (options.estimate.crawl_hops != defaults.estimate.crawl_hops) {
    config->SetInt("crawl_hops", options.estimate.crawl_hops);
  }
  if (options.estimate.use_crawl != defaults.estimate.use_crawl) {
    config->SetBool("crawl", options.estimate.use_crawl);
  }
  if (options.estimate.use_weighted != defaults.estimate.use_weighted) {
    config->SetBool("weighted", options.estimate.use_weighted);
  }
  if (options.estimate.epsilon != defaults.estimate.epsilon) {
    config->SetDouble("epsilon", options.estimate.epsilon);
  }
  if (options.estimate.base_reps != defaults.estimate.base_reps) {
    config->SetInt("base_reps", options.estimate.base_reps);
  }
  if (options.estimate.max_extra_reps != defaults.estimate.max_extra_reps) {
    config->SetInt("max_extra_reps", options.estimate.max_extra_reps);
  }
  if (options.estimate.target_rse != defaults.estimate.target_rse) {
    config->SetDouble("target_rse", options.estimate.target_rse);
  }
  if (options.rejection.mode == ScaleMode::kManual) {
    config->SetDouble("scale", options.rejection.manual_scale);
  } else if (options.rejection.percentile != defaults.rejection.percentile) {
    config->SetDouble("percentile", options.rejection.percentile);
  }
  if (options.max_candidates_per_draw != defaults.max_candidates_per_draw) {
    config->SetInt("max_candidates", options.max_candidates_per_draw);
  }
}

// Range checks for the options whose constructors WNW_CHECK them, so a bad
// spec value is an InvalidArgument instead of an abort.
Status CheckGeweke(const GewekeOptions& geweke) {
  if (!(geweke.first_frac > 0.0 && geweke.first_frac < 1.0) ||
      !(geweke.last_frac > 0.0 && geweke.last_frac < 1.0) ||
      geweke.first_frac + geweke.last_frac > 1.0) {
    return Status::InvalidArgument(
        "geweke_first and geweke_last must be in (0, 1) and sum to <= 1");
  }
  return Status::OK();
}

// Longest forward walk a spec may ask for. Every backward estimate replays
// up to t steps and the forward history keeps t per-step tables, so walks
// anywhere near this are already impractical; the cap exists so a huge
// walk_length or diameter is an InvalidArgument instead of an allocation
// abort (2 * diameter + 1 is computed in 64 bits, so it cannot overflow).
constexpr int64_t kMaxWalkLength = int64_t{1} << 20;

Status CheckWalkEstimate(const WalkEstimateOptions& options) {
  const int64_t walk_length =
      options.walk_length > 0 ? options.walk_length
                              : 2 * int64_t{options.diameter_bound} + 1;
  if (walk_length > kMaxWalkLength) {
    return Status::InvalidArgument(
        "walk length " + std::to_string(walk_length) +
        " (walk_length, or 2*diameter+1 when walk_length=0) exceeds 2^20");
  }
  const EstimateOptions& estimate = options.estimate;
  if (estimate.base_reps < 1) {
    return Status::InvalidArgument("base_reps must be >= 1");
  }
  if (estimate.use_weighted &&
      !(estimate.epsilon > 0.0 && estimate.epsilon <= 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  const RejectionOptions& rejection = options.rejection;
  if (rejection.mode == ScaleMode::kManual
          ? !(rejection.manual_scale > 0.0)
          : !(rejection.percentile >= 0.0 && rejection.percentile <= 1.0)) {
    return Status::InvalidArgument(
        "scale must be > 0 and percentile in [0, 1]");
  }
  if (options.max_candidates_per_draw < 1) {
    return Status::InvalidArgument("max_candidates must be >= 1");
  }
  return Status::OK();
}

// Codecs only the built-in factories below use; the public ones follow the
// anonymous namespace.

Status ReadBurnInOptions(const SamplerConfig& config,
                         BurnInSampler::Options* out) {
  ParamReader reader(config);
  ReadBurnInParams(reader, out);
  WNW_RETURN_IF_ERROR(reader.Finish());
  if (out->min_steps < 1 || out->check_interval < 1 ||
      out->max_steps < out->min_steps) {
    return Status::InvalidArgument(
        "sampler 'burnin': min_steps and check_interval must be >= 1 and "
        "max_steps >= min_steps");
  }
  return CheckGeweke(out->geweke);
}

Status ReadLongRunOptions(const SamplerConfig& config,
                          OneLongRunSampler::Options* out) {
  ParamReader reader(config);
  ReadBurnInParams(reader, &out->burn_in);
  reader.Read("thinning", &out->thinning);
  WNW_RETURN_IF_ERROR(reader.Finish());
  if (out->burn_in.check_interval < 1 || out->thinning < 1) {
    return Status::InvalidArgument(
        "sampler 'longrun': check_interval and thinning must be >= 1");
  }
  return CheckGeweke(out->burn_in.geweke);
}

Result<WalkEstimatePathSampler::Options> ReadWalkEstimatePathOptions(
    const SamplerConfig& config) {
  ParamReader reader(config);
  WalkEstimatePathSampler::Options options;
  WNW_ASSIGN_OR_RETURN(options.base, ReadWalkEstimateParams(reader));
  reader.Read("min_step", &options.min_candidate_step);
  reader.Read("stride", &options.stride);
  reader.Read("max_walks", &options.max_walks_per_draw);
  WNW_RETURN_IF_ERROR(reader.Finish());
  WNW_RETURN_IF_ERROR(CheckWalkEstimate(options.base));
  if (options.stride < 1 || options.EffectiveMinStep() < 1 ||
      options.EffectiveMinStep() > options.base.EffectiveWalkLength() ||
      options.max_walks_per_draw < 1) {
    return Status::InvalidArgument(
        "sampler 'we-path': stride and max_walks must be >= 1 and 1 <= "
        "min_step <= walk_length");
  }
  return options;
}

// --- built-in factories ------------------------------------------------------

Result<std::unique_ptr<Sampler>> MakeBurnIn(const SamplerConfig& config,
                                            AccessInterface* access,
                                            const TransitionDesign* design,
                                            NodeId start, uint64_t seed) {
  BurnInSampler::Options options;
  WNW_RETURN_IF_ERROR(ReadBurnInOptions(config, &options));
  return std::unique_ptr<Sampler>(
      std::make_unique<BurnInSampler>(access, design, start, options, seed));
}

Result<std::unique_ptr<Sampler>> MakeLongRun(const SamplerConfig& config,
                                             AccessInterface* access,
                                             const TransitionDesign* design,
                                             NodeId start, uint64_t seed) {
  OneLongRunSampler::Options options;
  WNW_RETURN_IF_ERROR(ReadLongRunOptions(config, &options));
  return std::unique_ptr<Sampler>(std::make_unique<OneLongRunSampler>(
      access, design, start, options, seed));
}

Result<std::unique_ptr<Sampler>> MakeFixedWalk(const SamplerConfig& config,
                                               AccessInterface* access,
                                               const TransitionDesign* design,
                                               NodeId start, uint64_t seed) {
  FixedWalkSampler::Options options;
  WNW_RETURN_IF_ERROR(ReadFixedWalkOptions(config, &options));
  return std::unique_ptr<Sampler>(
      std::make_unique<FixedWalkSampler>(access, design, start, options, seed));
}

Result<std::unique_ptr<Sampler>> MakeWalkEstimate(
    const SamplerConfig& config, AccessInterface* access,
    const TransitionDesign* design, NodeId start, uint64_t seed) {
  WNW_ASSIGN_OR_RETURN(WalkEstimateOptions options,
                       ReadWalkEstimateOptions(config));
  return std::unique_ptr<Sampler>(std::make_unique<WalkEstimateSampler>(
      access, design, start, options, seed));
}

Result<std::unique_ptr<Sampler>> MakeWalkEstimatePath(
    const SamplerConfig& config, AccessInterface* access,
    const TransitionDesign* design, NodeId start, uint64_t seed) {
  WNW_ASSIGN_OR_RETURN(WalkEstimatePathSampler::Options options,
                       ReadWalkEstimatePathOptions(config));
  return std::unique_ptr<Sampler>(std::make_unique<WalkEstimatePathSampler>(
      access, design, start, options, seed));
}

}  // namespace

// --- public option codecs ----------------------------------------------------

Status ReadFixedWalkOptions(const SamplerConfig& config,
                            FixedWalkSampler::Options* out) {
  ParamReader reader(config);
  reader.Read("steps", &out->steps);
  WNW_RETURN_IF_ERROR(reader.Finish());
  if (out->steps < 1) {
    return Status::InvalidArgument("sampler 'walk': steps must be >= 1");
  }
  return Status::OK();
}

Result<WalkEstimateOptions> ReadWalkEstimateOptions(
    const SamplerConfig& config) {
  ParamReader reader(config);
  WNW_ASSIGN_OR_RETURN(WalkEstimateOptions options,
                       ReadWalkEstimateParams(reader));
  WNW_RETURN_IF_ERROR(reader.Finish());
  WNW_RETURN_IF_ERROR(CheckWalkEstimate(options));
  return options;
}

// --- config builders ---------------------------------------------------------

SamplerConfig MakeBurnInConfig(std::string walk,
                               const BurnInSampler::Options& options) {
  SamplerConfig config;
  config.sampler = "burnin";
  config.walk = std::move(walk);
  EncodeBurnInParams(options, &config);
  return config;
}

SamplerConfig MakeLongRunConfig(std::string walk,
                                const OneLongRunSampler::Options& options) {
  SamplerConfig config;
  config.sampler = "longrun";
  config.walk = std::move(walk);
  EncodeBurnInParams(options.burn_in, &config);
  const OneLongRunSampler::Options defaults;
  if (options.thinning != defaults.thinning) {
    config.SetInt("thinning", options.thinning);
  }
  return config;
}

SamplerConfig MakeWalkEstimateConfig(std::string walk,
                                     WalkEstimateOptions options,
                                     WalkEstimateVariant variant) {
  SamplerConfig config;
  config.sampler = "we";
  config.walk = std::move(walk);
  ApplyVariant(variant, &options);
  EncodeWalkEstimateParams(options, variant, &config);
  return config;
}

SamplerConfig MakeWalkEstimatePathConfig(
    std::string walk, const WalkEstimatePathSampler::Options& options) {
  SamplerConfig config;
  config.sampler = "we-path";
  config.walk = std::move(walk);
  EncodeWalkEstimateParams(options.base, WalkEstimateVariant::kFull, &config);
  const WalkEstimatePathSampler::Options defaults;
  if (options.min_candidate_step != defaults.min_candidate_step) {
    config.SetInt("min_step", options.min_candidate_step);
  }
  if (options.stride != defaults.stride) {
    config.SetInt("stride", options.stride);
  }
  if (options.max_walks_per_draw != defaults.max_walks_per_draw) {
    config.SetInt("max_walks", options.max_walks_per_draw);
  }
  return config;
}

// --- SamplerRegistry ---------------------------------------------------------

SamplerRegistry& SamplerRegistry::Global() {
  static SamplerRegistry* registry = [] {
    auto* r = new SamplerRegistry();
    (void)r->Register(
        "burnin",
        {"random walk + Geweke burn-in, one sample per walk "
         "(check_interval, min_steps, max_steps, geweke_*)",
         MakeBurnIn});
    (void)r->Register(
        "longrun",
        {"burn in once, then every visited node is a sample "
         "(thinning + all burnin options)",
         MakeLongRun});
    (void)r->Register(
        "we",
        {"WALK-ESTIMATE, no burn-in (variant=full|none|crawl|weighted, "
         "diameter, walk_length, crawl_hops, epsilon, base_reps, "
         "max_extra_reps, target_rse, percentile, scale, max_candidates)",
         MakeWalkEstimate});
    (void)r->Register(
        "walk",
        {"fixed-length walk chain: advance the persistent walk by `steps` "
         "design steps per draw, the landing node is the sample (steps)",
         MakeFixedWalk});
    (void)r->Register(
        "we-path",
        {"WALK-ESTIMATE over whole walk paths, several samples per walk "
         "(min_step, stride, max_walks + all we options)",
         MakeWalkEstimatePath});
    return r;
  }();
  return *registry;
}

Status SamplerRegistry::Register(std::string name, Entry entry) {
  if (name.empty() || entry.make == nullptr) {
    return Status::InvalidArgument("sampler registration needs a name and "
                                   "a factory");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.emplace(std::move(name), std::move(entry)).second) {
    return Status::FailedPrecondition("sampler already registered");
  }
  return Status::OK();
}

bool SamplerRegistry::Contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> SamplerRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::string SamplerRegistry::Summary(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? "" : it->second.summary;
}

Result<std::unique_ptr<Sampler>> SamplerRegistry::Create(
    const SamplerConfig& config, AccessInterface* access,
    const TransitionDesign* design, NodeId start, uint64_t seed) const {
  Factory make;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(config.sampler);
    if (it == entries_.end()) {
      std::vector<std::string> names;
      for (const auto& [name, entry] : entries_) names.push_back(name);
      return Status::NotFound("unknown sampler '" + config.sampler +
                              "' (registered: " + JoinNames(names) + ")");
    }
    make = it->second.make;
  }
  return make(config, access, design, start, seed);
}

}  // namespace wnw
