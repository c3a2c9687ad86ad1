#include "core/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "core/session.h"
#include "core/spec_keys.h"
#include "datasets/social_datasets.h"
#include "test_util.h"
#include "util/string_util.h"

namespace wnw {
namespace {

TEST(SamplerConfigTest, ParsesFullSpec) {
  const auto config =
      SamplerConfig::Parse("we:mhrw?variant=crawl&diameter=10");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->sampler, "we");
  EXPECT_EQ(config->walk, "mhrw");
  ASSERT_EQ(config->params.size(), 2u);
  EXPECT_EQ(config->params.at("variant"), "crawl");
  EXPECT_EQ(config->params.at("diameter"), "10");
}

TEST(SamplerConfigTest, WalkDefaultsToSrw) {
  const auto config = SamplerConfig::Parse("burnin");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->sampler, "burnin");
  EXPECT_EQ(config->walk, "srw");
  EXPECT_TRUE(config->params.empty());
}

TEST(SamplerConfigTest, WalkSpecMayContainColon) {
  const auto config = SamplerConfig::Parse("we:maxdeg:64?diameter=8");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->walk, "maxdeg:64");
}

TEST(SamplerConfigTest, RoundTripsThroughSpecString) {
  const char* specs[] = {
      "we:mhrw?variant=crawl&diameter=10",
      "burnin:srw?max_steps=20000",
      "longrun:srw?thinning=4",
      "we-path:mhrw",
      "we:maxdeg:64?diameter=8&epsilon=0.25",
      "we:lazy?percentile=0.05&walk_length=21",
  };
  for (const char* spec : specs) {
    const auto first = SamplerConfig::Parse(spec);
    ASSERT_TRUE(first.ok()) << spec;
    const std::string formatted = first->ToSpec();
    const auto second = SamplerConfig::Parse(formatted);
    ASSERT_TRUE(second.ok()) << formatted;
    EXPECT_EQ(*first, *second) << spec << " vs " << formatted;
    // Formatting is canonical: a second round trip is a fixed point.
    EXPECT_EQ(formatted, second->ToSpec());
  }
}

TEST(SamplerConfigTest, BuilderConfigsRoundTrip) {
  BurnInSampler::Options bopts;
  bopts.max_steps = 20000;
  bopts.geweke.threshold = 0.01;
  WalkEstimateOptions wopts;
  wopts.diameter_bound = 7;
  wopts.estimate.epsilon = 0.2;
  WalkEstimatePathSampler::Options popts;
  popts.stride = 3;
  const SamplerConfig configs[] = {
      MakeBurnInConfig("srw", bopts),
      MakeLongRunConfig("srw", {}),
      MakeWalkEstimateConfig("mhrw", wopts, WalkEstimateVariant::kCrawlOnly),
      MakeWalkEstimatePathConfig("mhrw", popts),
  };
  for (const auto& config : configs) {
    const auto parsed = SamplerConfig::Parse(config.ToSpec());
    ASSERT_TRUE(parsed.ok()) << config.ToSpec();
    EXPECT_EQ(*parsed, config) << config.ToSpec();
  }
}

TEST(SamplerConfigTest, BuilderEmitsOnlyNonDefaultValues) {
  EXPECT_EQ(MakeBurnInConfig("srw").ToSpec(), "burnin:srw");
  EXPECT_EQ(MakeWalkEstimateConfig("mhrw").ToSpec(), "we:mhrw");
  WalkEstimateOptions wopts;
  wopts.diameter_bound = 7;
  EXPECT_EQ(MakeWalkEstimateConfig("mhrw", wopts).ToSpec(),
            "we:mhrw?diameter=7");
  EXPECT_EQ(MakeWalkEstimateConfig("srw", {}, WalkEstimateVariant::kNone)
                .ToSpec(),
            "we:srw?variant=none");
}

TEST(SamplerConfigTest, MalformedSpecsReturnStatus) {
  const char* bad[] = {
      "",                       // empty sampler
      ":srw",                   // empty sampler, walk present
      "we:",                    // empty walk
      "we?diameter",            // parameter without '='
      "we?=10",                 // empty key
      "we?diameter=",           // empty value
      "we?diameter=5&diameter=6",  // duplicate key
  };
  for (const char* spec : bad) {
    const auto config = SamplerConfig::Parse(spec);
    EXPECT_FALSE(config.ok()) << spec;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(SamplerRegistryTest, GlobalHasBuiltins) {
  auto& registry = SamplerRegistry::Global();
  for (const char* name : {"burnin", "longrun", "we", "we-path"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_FALSE(registry.Summary(name).empty()) << name;
  }
  EXPECT_FALSE(registry.Contains("nope"));
}

TEST(SamplerRegistryTest, RejectsDuplicateRegistration) {
  auto& registry = SamplerRegistry::Global();
  const Status again = registry.Register(
      "we", {"dup", [](const SamplerConfig&, AccessInterface*,
                       const TransitionDesign*, NodeId,
                       uint64_t) -> Result<std::unique_ptr<Sampler>> {
               return Status::Internal("unreachable");
             }});
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
}

TEST(SamplerRegistryTest, RejectsKeysThatRepeatOrShadowReservedOnes) {
  const auto make = [](const SamplerConfig&, AccessInterface*,
                       const TransitionDesign*, NodeId,
                       uint64_t) -> Result<std::unique_ptr<Sampler>> {
    return Status::Internal("unreachable");
  };
  SamplerRegistry registry;
  const SpecField window{.key = "window", .type = SpecType::kUint};
  const SpecField steps{.key = "steps", .type = SpecType::kUint};
  EXPECT_EQ(registry.Register("shadow", {"", make, {window}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("twice", {"", make, {steps, steps}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry.Names().empty());
  EXPECT_TRUE(registry.Register("ok", {"", make, {steps}}).ok());
}

TEST(SamplerRegistryTest, UnknownSamplerIsNotFound) {
  const Graph g = testing::MakeTestBA(50, 3);
  const auto session = SamplingSession::Open(&g, "nope:srw");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);
  // The error names the registered samplers to help the caller.
  EXPECT_NE(session.status().message().find("we"), std::string::npos);
}

TEST(SamplerRegistryTest, UnknownParameterIsInvalidArgument) {
  const Graph g = testing::MakeTestBA(50, 3);
  for (const char* spec :
       {"we:srw?bogus=1", "burnin:srw?thinning=2", "we:srw?diameter=abc",
        "we:srw?variant=sideways", "longrun:srw?thinning=x"}) {
    const auto session = SamplingSession::Open(&g, spec);
    ASSERT_FALSE(session.ok()) << spec;
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(SamplerRegistryTest, OutOfRangeOptionsAreStatusesNotAborts) {
  // Each of these trips a constructor CHECK unless the option codecs
  // range-check it first; non-finite doubles are never valid input.
  const Graph g = testing::MakeTestBA(50, 3);
  for (const char* spec :
       {"we:mhrw?epsilon=2", "we:mhrw?percentile=nan", "we:mhrw?percentile=2",
        "we:mhrw?scale=0", "we:mhrw?base_reps=0", "we:mhrw?max_candidates=0",
        "we:mhrw?target_rse=inf", "burnin:srw?geweke_first=0.9&geweke_last=0.9",
        "burnin:srw?geweke_first=0", "burnin:srw?geweke_last=1",
        "burnin:srw?min_steps=0", "burnin:srw?check_interval=0",
        "burnin:srw?max_steps=10", "burnin:srw?geweke_threshold=nan",
        "longrun:srw?check_interval=0", "longrun:srw?thinning=0",
        "we-path:mhrw?diameter=0", "we-path:mhrw?diameter=3&min_step=100",
        "we-path:mhrw?stride=0", "we-path:srw?max_walks=0",
        "we:mhrw?diameter=2000000000", "we:mhrw?walk_length=2000000000",
        "we:mhrw?crawl_hops=2000000000&diameter=4",
        "we:mhrw?crawl_hops=100000", "walk:srw?steps=0",
        "walk:srw?steps=4294967297"}) {
    const auto session = SamplingSession::Open(&g, spec);
    ASSERT_FALSE(session.ok()) << spec;
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  // Values a constructor ignores stay accepted: epsilon without weighted
  // backward walks, percentile under a manual scale, longrun step bounds.
  for (const char* spec : {"we:mhrw?variant=none&epsilon=2",
                           "we:mhrw?scale=2&percentile=5",
                           "longrun:srw?min_steps=0"}) {
    EXPECT_TRUE(SamplingSession::Open(&g, spec).ok()) << spec;
  }
}

TEST(SpecKeySchemaTest, EveryKeyIsDocumentedWithItsTypeAndDefault) {
  std::ifstream doc(std::string(WNW_SOURCE_DIR) + "/docs/SPEC_STRINGS.md");
  ASSERT_TRUE(doc.is_open());
  // "| `key` | type | default | meaning |" -> key -> {type, default}.
  std::map<std::string, std::pair<std::string, std::string>> rows;
  const auto cell = [](std::string text) {
    std::erase(text, '`');
    return std::string(TrimString(text));
  };
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::stringstream fields(line.substr(1));
    for (std::string field; std::getline(fields, field, '|');) {
      cells.push_back(cell(field));
    }
    if (cells.size() >= 3) rows.try_emplace(cells[0], cells[1], cells[2]);
  }
  std::vector<SpecField> fields;
  for (const SpecKey& row : ReservedSessionKeys()) fields.push_back(row.field);
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    for (const SpecField& field : SamplerRegistry::Global().Keys(name)) {
      fields.push_back(field);
    }
  }
  for (const SpecField& field : fields) {
    const auto it = rows.find(std::string(field.key));
    ASSERT_NE(it, rows.end())
        << field.key << " has no docs/SPEC_STRINGS.md row";
    EXPECT_EQ(it->second.first, SpecTypeName(field.type)) << field.key;
    EXPECT_EQ(it->second.second, field.default_value) << field.key;
  }
}

// The canonical spec a sampler spec resolves to through the option codecs:
// Parse -> Read*Options -> Make*Config -> ToSpec.
Result<std::string> Canonical(const std::string& spec) {
  WNW_ASSIGN_OR_RETURN(const SamplerConfig config, SamplerConfig::Parse(spec));
  const std::string& walk = config.walk;
  if (config.sampler == "burnin") {
    WNW_ASSIGN_OR_RETURN(const BurnInSampler::Options options,
                         ReadBurnInOptions(config));
    return MakeBurnInConfig(walk, options).ToSpec();
  }
  if (config.sampler == "longrun") {
    WNW_ASSIGN_OR_RETURN(const OneLongRunSampler::Options options,
                         ReadLongRunOptions(config));
    return MakeLongRunConfig(walk, options).ToSpec();
  }
  if (config.sampler == "walk") {
    FixedWalkSampler::Options options;
    WNW_RETURN_IF_ERROR(ReadFixedWalkOptions(config, &options));
    return MakeFixedWalkConfig(walk, options).ToSpec();
  }
  if (config.sampler == "we") {
    WNW_ASSIGN_OR_RETURN(const WalkEstimateOptions options,
                         ReadWalkEstimateOptions(config));
    // The builder's variant argument sets both heuristic switches.
    const bool crawl = options.estimate.use_crawl;
    const bool weighted = options.estimate.use_weighted;
    const WalkEstimateVariant variant =
        crawl ? (weighted ? WalkEstimateVariant::kFull
                          : WalkEstimateVariant::kCrawlOnly)
              : (weighted ? WalkEstimateVariant::kWeightedOnly
                          : WalkEstimateVariant::kNone);
    return MakeWalkEstimateConfig(walk, options, variant).ToSpec();
  }
  if (config.sampler == "we-path") {
    WNW_ASSIGN_OR_RETURN(const WalkEstimatePathSampler::Options options,
                         ReadWalkEstimatePathOptions(config));
    return MakeWalkEstimatePathConfig(walk, options).ToSpec();
  }
  return Status::NotFound("no option codec for sampler '" + config.sampler +
                          "'");
}

// Values worth trying as a valid non-default setting of a key.
std::vector<std::string> Candidates(const SpecField& field) {
  switch (field.type) {
    case SpecType::kEnum: {
      std::vector<std::string> choices;
      for (std::string_view choice : SplitString(field.choices, "|")) {
        choices.emplace_back(choice);
      }
      return choices;
    }
    case SpecType::kBool:
      return {"0", "1"};
    default:
      break;
  }
  double d = field.lo;  // a default of "—" (unset) starts at the bound
  (void)ParseDouble(field.default_value, &d);
  if (field.type == SpecType::kUint) {
    return {FormatSpecNumber(d + 1), FormatSpecNumber(d + 16),
            FormatSpecNumber(field.lo + 1)};
  }
  return {FormatSpecNumber(d * 2), FormatSpecNumber(d / 2),
          FormatSpecNumber(field.lo + 1)};
}

// Every key of every registered sampler, from its row alone: a value of
// the wrong type and one past either bound are InvalidArgument, the
// documented default changes nothing, every accepted candidate value
// survives the option codecs, and at least one of them is not a default.
TEST(SamplerKeyTableTest, EveryKeyChecksItsValueAndRoundTrips) {
  const Graph g = testing::MakeTestBA(50, 3);
  const auto expect_rejected = [&](const std::string& spec) {
    const auto session = SamplingSession::Open(&g, spec);
    ASSERT_FALSE(session.ok()) << spec;
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument) << spec;
  };
  const SamplerRegistry& registry = SamplerRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const std::string base = name + ":srw";
    const auto plain = Canonical(base);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    for (const SpecField& field : registry.Keys(name)) {
      const std::string key = base + "?" + std::string(field.key) + "=";
      expect_rejected(key + "abc");
      if (field.type == SpecType::kUint || field.type == SpecType::kDouble) {
        expect_rejected(key + FormatSpecNumber(field.lo - 1));
        if (std::isfinite(field.hi)) {
          expect_rejected(key + FormatSpecNumber(field.hi + 1));
        }
      }
      if (CheckSpecValue(field, field.default_value).ok()) {
        const auto same = Canonical(key + std::string(field.default_value));
        ASSERT_TRUE(same.ok()) << key << ": " << same.status().ToString();
        EXPECT_EQ(*same, *plain) << key << field.default_value;
      }
      bool changed = false;
      for (const std::string& value : Candidates(field)) {
        const auto once = Canonical(key + value);
        if (!once.ok()) continue;
        const auto twice = Canonical(*once);
        ASSERT_TRUE(twice.ok()) << *once << ": " << twice.status().ToString();
        EXPECT_EQ(*twice, *once) << key << value;
        // One key in, at most one key out: the builders stay compact.
        EXPECT_LE(SamplerConfig::Parse(*once)->params.size(), 1u) << *once;
        changed |= *once != *plain;
      }
      EXPECT_TRUE(changed) << key << " has no valid non-default value";
    }
  }
}

// The two keys with side effects: variant presets both heuristic switches
// and an explicit crawl or weighted overrides it, whatever the key order in
// the spec; scale switches the acceptance scale to manual.
TEST(SamplerKeyTableTest, KeysWithSideEffects) {
  const std::pair<const char*, const char*> cases[] = {
      {"we:srw?crawl=1&variant=none", "we:srw?variant=crawl"},
      {"we:srw?variant=crawl&crawl=0&weighted=1", "we:srw?variant=weighted"},
      {"we:srw?weighted=off", "we:srw?variant=crawl"},
      {"we-path:srw?variant=none&weighted=1", "we-path:srw?variant=weighted"},
      {"we:srw?percentile=0.5&scale=2", "we:srw?percentile=0.5&scale=2"},
  };
  for (const auto& [spec, want] : cases) {
    const auto got = Canonical(spec);
    ASSERT_TRUE(got.ok()) << spec << ": " << got.status().ToString();
    EXPECT_EQ(*got, want) << spec;
  }
  const auto manual =
      ReadWalkEstimateOptions(*SamplerConfig::Parse("we:srw?scale=2"));
  ASSERT_TRUE(manual.ok());
  EXPECT_EQ(manual->rejection.mode, ScaleMode::kManual);
  EXPECT_EQ(manual->rejection.manual_scale, 2.0);
}

TEST(SamplerRegistryTest, EveryBuiltinDrawsOnSmallDataset) {
  const SocialDataset ds = MakeSmallScaleFree(/*seed=*/3);
  for (const auto& name : SamplerRegistry::Global().Names()) {
    // A modest diameter bound keeps the WE family fast on this graph; the
    // burn-in family ignores it... so pass only what each sampler takes.
    std::string spec = name + ":srw";
    if (name.rfind("we", 0) == 0) {
      spec += "?diameter=" + std::to_string(ds.diameter_estimate);
    }
    SessionOptions opts;
    opts.seed = 11;
    auto session_or = SamplingSession::Open(&ds.graph, spec, opts);
    ASSERT_TRUE(session_or.ok())
        << spec << ": " << session_or.status().ToString();
    SamplingSession& session = **session_or;
    const auto drawn = session.Draw();
    ASSERT_TRUE(drawn.ok()) << spec << ": " << drawn.status().ToString();
    EXPECT_LT(drawn.value(), ds.graph.num_nodes()) << spec;
    const SessionStats stats = session.Stats();
    EXPECT_EQ(stats.samples_drawn, 1u) << spec;
    EXPECT_GT(stats.query_cost, 0u) << spec;
    EXPECT_EQ(stats.spec, session.config().ToSpec()) << spec;
  }
}

}  // namespace
}  // namespace wnw
