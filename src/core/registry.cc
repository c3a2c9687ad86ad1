#include "core/registry.h"

#include <algorithm>
#include <limits>
#include <set>
#include <type_traits>
#include <utility>

#include "util/string_util.h"

namespace wnw {

namespace {

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

// --- bias --------------------------------------------------------------------

TargetBias BiasForWalkSpec(std::string_view walk_spec) {
  const std::string_view family = walk_spec.substr(0, walk_spec.find(':'));
  return family == "srw" || family == "lazy" ? TargetBias::kStationaryWeighted
                                             : TargetBias::kUniform;
}

// --- sampler keys ------------------------------------------------------------

namespace {

using T = SpecType;
using V = SpecValue;
using Params = std::map<std::string, std::string, std::less<>>;

// A sampler's spec key: its schema field, where a checked value lands in
// the sampler's options struct, and how the config builders render it.
template <typename Options>
struct SamplerKey {
  SpecField field;
  void (*apply)(const SpecValue& value, Options* options);
  std::string (*format)(const Options& options);
};

void Assign(int& out, const V& v) { out = static_cast<int>(v.uint); }
void Assign(size_t& out, const V& v) { out = v.uint; }
void Assign(double& out, const V& v) { out = v.real; }
void Assign(bool& out, const V& v) { out = v.flag; }

std::string Text(int value) { return std::to_string(value); }
std::string Text(size_t value) { return std::to_string(value); }
std::string Text(double value) { return FormatSpecNumber(value); }
std::string Text(bool value) { return value ? "1" : "0"; }

// A key that is one options field, which `At` returns by reference. The
// field's C++ type sets the key's type, and an int field caps the range at
// INT_MAX so a larger value is out of range instead of truncated.
template <typename Options, typename At>
constexpr SamplerKey<Options> Plain(SpecField field, At) {
  using Field = std::remove_cvref_t<decltype(At{}(std::declval<Options&>()))>;
  field.type = std::is_same_v<Field, double> ? T::kDouble
               : std::is_same_v<Field, bool> ? T::kBool
                                             : T::kUint;
  if (std::is_same_v<Field, int>) {
    field.hi = std::min<double>(field.hi, std::numeric_limits<int>::max());
  }
  return {field, [](const V& v, Options* o) { Assign(At{}(*o), v); },
          [](const Options& o) { return Text(At{}(o)); }};
}

using B = BurnInSampler::Options;
constexpr SamplerKey<B> kBurnInKeys[] = {
    Plain<B>({.key = "check_interval", .lo = 1, .default_value = "20",
              .doc = "steps between convergence checks"},
             [](auto& o) -> auto& { return o.check_interval; }),
    Plain<B>({.key = "min_steps", .default_value = "50",
              .doc = "walk at least this long before checking; burnin "
                     "needs >= 1"},
             [](auto& o) -> auto& { return o.min_steps; }),
    Plain<B>({.key = "max_steps", .default_value = "50000",
              .doc = "hard cap, then the current node is taken (logged); "
                     "burnin needs >= min_steps"},
             [](auto& o) -> auto& { return o.max_steps; }),
    Plain<B>({.key = "geweke_first", .hi = 1.0, .lo_open = true,
              .hi_open = true, .default_value = "0.1",
              .doc = "Geweke window A: leading fraction of the chain"},
             [](auto& o) -> auto& { return o.geweke.first_frac; }),
    Plain<B>({.key = "geweke_last", .hi = 1.0, .lo_open = true,
              .hi_open = true, .default_value = "0.5",
              .doc = "Geweke window B: trailing fraction; geweke_first + "
                     "geweke_last <= 1"},
             [](auto& o) -> auto& { return o.geweke.last_frac; }),
    Plain<B>({.key = "geweke_threshold", .default_value = "0.1",
              .doc = "Geweke z-score below which the chain has converged"},
             [](auto& o) -> auto& { return o.geweke.threshold; }),
    Plain<B>({.key = "geweke_min", .default_value = "50",
              .doc = "minimum chain length before a verdict"},
             [](auto& o) -> auto& { return o.geweke.min_samples; }),
};

using L = OneLongRunSampler::Options;
constexpr SamplerKey<L> kLongRunKeys[] = {
    Plain<L>({.key = "thinning", .lo = 1, .default_value = "1",
              .doc = "keep every thinning-th node after burn-in"},
             [](auto& o) -> auto& { return o.thinning; }),
};

using FW = FixedWalkSampler::Options;
constexpr SamplerKey<FW> kFixedWalkKeys[] = {
    Plain<FW>({.key = "steps", .lo = 1, .default_value = "8",
               .doc = "design steps the persistent walk advances per draw"},
              [](auto& o) -> auto& { return o.steps; }),
};

// The `variant` choice that a pair of heuristic switches amounts to.
std::string VariantOf(const EstimateOptions& estimate) {
  if (estimate.use_crawl) return estimate.use_weighted ? "full" : "crawl";
  return estimate.use_weighted ? "weighted" : "none";
}

// Row order is application order: variant presets both heuristic switches
// before an explicit crawl or weighted overrides one. The variant choices
// are listed in WalkEstimateVariant order.
using W = WalkEstimateOptions;
constexpr SamplerKey<W> kWalkEstimateKeys[] = {
    {{.key = "variant", .type = T::kEnum,
      .choices = "full|none|crawl|weighted", .default_value = "full",
      .doc = "the Figure 9 heuristic preset; explicit crawl / weighted "
             "override it"},
     [](const V& v, W* o) {
       ApplyVariant(static_cast<WalkEstimateVariant>(v.uint), o);
     },
     [](const W& o) { return VariantOf(o.estimate); }},
    Plain<W>({.key = "diameter", .default_value = "10",
              .doc = "conservative diameter upper bound D̄(G)"},
             [](auto& o) -> auto& { return o.diameter_bound; }),
    Plain<W>({.key = "walk_length", .default_value = "0",
              .doc = "forward walk length t, 0 derives 2*diameter+1; t <= "
                     "2^20"},
             [](auto& o) -> auto& { return o.walk_length; }),
    Plain<W>({.key = "crawl", .default_value = "per variant",
              .doc = "the initial-crawling heuristic"},
             [](auto& o) -> auto& { return o.estimate.use_crawl; }),
    Plain<W>({.key = "crawl_hops", .hi = 64, .default_value = "2",
              .doc = "initial-crawl radius h; the crawl holds (h+1) * |ball| "
                     "step probabilities"},
             [](auto& o) -> auto& { return o.estimate.crawl_hops; }),
    Plain<W>({.key = "weighted", .default_value = "per variant",
              .doc = "WS-BW weighted backward sampling"},
             [](auto& o) -> auto& { return o.estimate.use_weighted; }),
    Plain<W>({.key = "epsilon", .lo_open = true, .default_value = "0.1",
              .doc = "WS-BW exploration floor; <= 1 when weighted"},
             [](auto& o) -> auto& { return o.estimate.epsilon; }),
    Plain<W>({.key = "base_reps", .lo = 1, .default_value = "6",
              .doc = "backward-walk repetitions always spent per estimate"},
             [](auto& o) -> auto& { return o.estimate.base_reps; }),
    Plain<W>({.key = "max_extra_reps", .default_value = "18",
              .doc = "extra repetitions while the estimate is noisy"},
             [](auto& o) -> auto& { return o.estimate.max_extra_reps; }),
    Plain<W>({.key = "target_rse", .default_value = "0.5",
              .doc = "stop spending extras below this relative standard "
                     "error"},
             [](auto& o) -> auto& { return o.estimate.target_rse; }),
    Plain<W>({.key = "percentile", .default_value = "0.1",
              .doc = "acceptance-scale bootstrap percentile; <= 1 unless "
                     "scale is set"},
             [](auto& o) -> auto& { return o.rejection.percentile; }),
    {{.key = "scale", .type = T::kDouble, .lo_open = true,
      .default_value = "—",
      .doc = "manual acceptance scale; setting it switches off the "
             "percentile bootstrap"},
     [](const V& v, W* o) {
       o->rejection.mode = ScaleMode::kManual;
       o->rejection.manual_scale = v.real;
     },
     [](const W& o) {
       return o.rejection.mode == ScaleMode::kManual
                  ? FormatSpecNumber(o.rejection.manual_scale)
                  : std::string();
     }},
    Plain<W>({.key = "max_candidates", .lo = 1, .default_value = "100000",
              .doc = "candidate walks per Draw() before giving up"},
             [](auto& o) -> auto& { return o.max_candidates_per_draw; }),
};

using P = WalkEstimatePathSampler::Options;
constexpr SamplerKey<P> kPathKeys[] = {
    Plain<P>({.key = "min_step", .default_value = "0",
              .doc = "first walk step taken as a candidate, 0 derives "
                     "diameter; at most the walk length"},
             [](auto& o) -> auto& { return o.min_candidate_step; }),
    Plain<P>({.key = "stride", .lo = 1, .default_value = "1",
              .doc = "consider every stride-th step"},
             [](auto& o) -> auto& { return o.stride; }),
    Plain<P>({.key = "max_walks", .lo = 1, .default_value = "100000",
              .doc = "walks per Draw() before giving up"},
             [](auto& o) -> auto& { return o.max_walks_per_draw; }),
};

// Checks and applies the key of each row that *params carries, consuming
// it.
template <typename Options, size_t N>
Status ApplyKeys(const SamplerKey<Options> (&rows)[N], Params* params,
                 Options* options) {
  for (const SamplerKey<Options>& row : rows) {
    const auto it = params->find(row.field.key);
    if (it == params->end()) continue;
    WNW_ASSIGN_OR_RETURN(const SpecValue value,
                         CheckSpecValue(row.field, it->second));
    row.apply(value, options);
    params->erase(it);
  }
  return Status::OK();
}

Status RejectUnconsumed(const SamplerConfig& config, const Params& rest) {
  if (rest.empty()) return Status::OK();
  return Status::InvalidArgument("sampler '" + config.sampler +
                                 "' does not take parameter '" +
                                 rest.begin()->first + "'");
}

// Sets the key of each row whose formatted value differs from a baseline's.
// The baseline starts at the defaults and takes every emitted value, so a
// preset (variant) absorbs the switches it implies.
template <typename Options, size_t N>
void EncodeKeys(const SamplerKey<Options> (&rows)[N], const Options& options,
                SamplerConfig* config) {
  Options baseline;
  for (const SamplerKey<Options>& row : rows) {
    std::string text = row.format(options);
    if (text == row.format(baseline)) continue;
    if (const auto value = CheckSpecValue(row.field, text); value.ok()) {
      row.apply(*value, &baseline);
    }
    config->Set(std::string(row.field.key), std::move(text));
  }
}

template <typename... Rows>
std::vector<SpecField> Fields(const Rows&... rows) {
  std::vector<SpecField> fields;
  (..., [&] {
    for (const auto& row : rows) fields.push_back(row.field);
  }());
  return fields;
}

// Checks that span fields; every single value already passed its row.
Status CheckGeweke(const GewekeOptions& geweke) {
  if (geweke.first_frac + geweke.last_frac > 1.0) {
    return Status::InvalidArgument("geweke_first + geweke_last must be <= 1");
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
  if (options.estimate.use_weighted && options.estimate.epsilon > 1.0) {
    return Status::InvalidArgument("epsilon must be <= 1 when weighted");
  }
  if (options.rejection.mode != ScaleMode::kManual &&
      options.rejection.percentile > 1.0) {
    return Status::InvalidArgument("percentile must be <= 1 unless scale "
                                   "is set");
  }
  return Status::OK();
}

// --- built-in factories ------------------------------------------------------

template <typename SamplerT, auto Read>
Result<std::unique_ptr<Sampler>> Make(const SamplerConfig& config,
                                      AccessInterface* access,
                                      const TransitionDesign* design,
                                      NodeId start, uint64_t seed) {
  WNW_ASSIGN_OR_RETURN(auto options, Read(config));
  return std::unique_ptr<Sampler>(
      std::make_unique<SamplerT>(access, design, start, options, seed));
}

Result<FixedWalkSampler::Options> ReadFixedWalk(const SamplerConfig& config) {
  FixedWalkSampler::Options options;
  WNW_RETURN_IF_ERROR(ReadFixedWalkOptions(config, &options));
  return options;
}

}  // namespace

// --- option codecs -----------------------------------------------------------

Result<BurnInSampler::Options> ReadBurnInOptions(const SamplerConfig& config) {
  Params params = config.params;
  BurnInSampler::Options options;
  WNW_RETURN_IF_ERROR(ApplyKeys(kBurnInKeys, &params, &options));
  WNW_RETURN_IF_ERROR(RejectUnconsumed(config, params));
  if (options.min_steps < 1 || options.max_steps < options.min_steps) {
    return Status::InvalidArgument(
        "sampler 'burnin' needs 1 <= min_steps <= max_steps");
  }
  WNW_RETURN_IF_ERROR(CheckGeweke(options.geweke));
  return options;
}

Result<OneLongRunSampler::Options> ReadLongRunOptions(
    const SamplerConfig& config) {
  Params params = config.params;
  OneLongRunSampler::Options options;
  WNW_RETURN_IF_ERROR(ApplyKeys(kBurnInKeys, &params, &options.burn_in));
  WNW_RETURN_IF_ERROR(ApplyKeys(kLongRunKeys, &params, &options));
  WNW_RETURN_IF_ERROR(RejectUnconsumed(config, params));
  WNW_RETURN_IF_ERROR(CheckGeweke(options.burn_in.geweke));
  return options;
}

Status ReadFixedWalkOptions(const SamplerConfig& config,
                            FixedWalkSampler::Options* out) {
  Params params = config.params;
  WNW_RETURN_IF_ERROR(ApplyKeys(kFixedWalkKeys, &params, out));
  return RejectUnconsumed(config, params);
}

Result<WalkEstimateOptions> ReadWalkEstimateOptions(
    const SamplerConfig& config) {
  Params params = config.params;
  WalkEstimateOptions options;
  WNW_RETURN_IF_ERROR(ApplyKeys(kWalkEstimateKeys, &params, &options));
  WNW_RETURN_IF_ERROR(RejectUnconsumed(config, params));
  WNW_RETURN_IF_ERROR(CheckWalkEstimate(options));
  return options;
}

Result<WalkEstimatePathSampler::Options> ReadWalkEstimatePathOptions(
    const SamplerConfig& config) {
  Params params = config.params;
  WalkEstimatePathSampler::Options options;
  WNW_RETURN_IF_ERROR(ApplyKeys(kWalkEstimateKeys, &params, &options.base));
  WNW_RETURN_IF_ERROR(ApplyKeys(kPathKeys, &params, &options));
  WNW_RETURN_IF_ERROR(RejectUnconsumed(config, params));
  WNW_RETURN_IF_ERROR(CheckWalkEstimate(options.base));
  if (options.EffectiveMinStep() < 1 ||
      options.EffectiveMinStep() > options.base.EffectiveWalkLength()) {
    return Status::InvalidArgument(
        "sampler 'we-path' needs 1 <= min_step <= walk length");
  }
  return options;
}

SamplerConfig MakeBurnInConfig(std::string walk,
                               const BurnInSampler::Options& options) {
  SamplerConfig config{.sampler = "burnin", .walk = std::move(walk)};
  EncodeKeys(kBurnInKeys, options, &config);
  return config;
}

SamplerConfig MakeLongRunConfig(std::string walk,
                                const OneLongRunSampler::Options& options) {
  SamplerConfig config{.sampler = "longrun", .walk = std::move(walk)};
  EncodeKeys(kBurnInKeys, options.burn_in, &config);
  EncodeKeys(kLongRunKeys, options, &config);
  return config;
}

SamplerConfig MakeFixedWalkConfig(std::string walk,
                                  const FixedWalkSampler::Options& options) {
  SamplerConfig config{.sampler = "walk", .walk = std::move(walk)};
  EncodeKeys(kFixedWalkKeys, options, &config);
  return config;
}

SamplerConfig MakeWalkEstimateConfig(std::string walk,
                                     WalkEstimateOptions options,
                                     WalkEstimateVariant variant) {
  SamplerConfig config{.sampler = "we", .walk = std::move(walk)};
  ApplyVariant(variant, &options);
  EncodeKeys(kWalkEstimateKeys, options, &config);
  return config;
}

SamplerConfig MakeWalkEstimatePathConfig(
    std::string walk, const WalkEstimatePathSampler::Options& options) {
  SamplerConfig config{.sampler = "we-path", .walk = std::move(walk)};
  EncodeKeys(kWalkEstimateKeys, options.base, &config);
  EncodeKeys(kPathKeys, options, &config);
  return config;
}

// --- SamplerRegistry ---------------------------------------------------------

SamplerRegistry& SamplerRegistry::Global() {
  static SamplerRegistry* registry = [] {
    auto* r = new SamplerRegistry();
    (void)r->Register(
        "burnin", {"random walk + Geweke burn-in, one sample per walk",
                   Make<BurnInSampler, ReadBurnInOptions>,
                   Fields(kBurnInKeys)});
    (void)r->Register(
        "longrun", {"burn in once, then every visited node is a sample",
                    Make<OneLongRunSampler, ReadLongRunOptions>,
                    Fields(kBurnInKeys, kLongRunKeys)});
    (void)r->Register(
        "we", {"WALK-ESTIMATE, no burn-in",
               Make<WalkEstimateSampler, ReadWalkEstimateOptions>,
               Fields(kWalkEstimateKeys)});
    (void)r->Register(
        "walk", {"fixed-length walk chain: advance the persistent walk by "
                 "`steps` design steps per draw, the landing node is the "
                 "sample",
                 Make<FixedWalkSampler, ReadFixedWalk>,
                 Fields(kFixedWalkKeys)});
    (void)r->Register(
        "we-path",
        {"WALK-ESTIMATE over whole walk paths, several samples per walk",
         Make<WalkEstimatePathSampler, ReadWalkEstimatePathOptions>,
         Fields(kWalkEstimateKeys, kPathKeys)});
    return r;
  }();
  return *registry;
}

Status SamplerRegistry::Register(std::string name, Entry entry) {
  if (name.empty() || entry.make == nullptr) {
    return Status::InvalidArgument("sampler registration needs a name and "
                                   "a factory");
  }
  std::set<std::string_view> taken;
  for (const SpecKey& row : ReservedSessionKeys()) taken.insert(row.field.key);
  for (const SpecField& field : entry.keys) {
    if (!taken.insert(field.key).second) {
      return Status::InvalidArgument(
          "sampler '" + name + "': key '" + std::string(field.key) +
          "' is repeated or session-reserved");
    }
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

std::vector<SpecField> SamplerRegistry::Keys(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? std::vector<SpecField>{} : it->second.keys;
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
