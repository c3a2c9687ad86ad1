// wnw_sample: command-line node sampler over an edge-list graph or a
// built-in synthetic dataset, exercising the library end to end.
//
// The sampler is chosen with a registry spec string:
//   <sampler>[:<walk>][?key=value&...]
// e.g. "we:mhrw", "we:mhrw?variant=crawl&diameter=10",
//      "burnin:srw?max_steps=20000", "longrun:srw?thinning=4", "we-path:mhrw"
//
// Usage:
//   wnw_sample [--graph FILE | --dataset SPEC]
//              [--spec SPEC] [--samples N] [--seed S] [--scale X]
//              [--diameter-bound D] [--estimate-degree] [--quiet] [--json]
//              [--cache_file FILE]
//
// Examples:
//   wnw_sample --dataset ba:20000,5 --spec we:mhrw --samples 100
//   wnw_sample --graph my_edges.txt --spec "burnin:srw?max_steps=5000" \
//              --samples 50 --estimate-degree
//   wnw_sample --dataset small --samples 20 --json \
//              --spec "we:mhrw?backend=latency&mean_ms=50"
//   wnw_sample --dataset small --samples 20 \
//              --spec "we:mhrw?snapshot=small.snap"   # mmap'd origin
//   wnw_sample --dataset small --samples 20 --cache_file warm.wnwcache
//   wnw_sample --dataset ba:20000,5 --samples 4096 --json \
//              --spec "walk:srw?steps=8&engine=block&walkers=1024"
//
// --cache_file FILE persists the query cache across runs: the file is
// loaded when it exists (a warm start pays no queries for nodes any earlier
// run already fetched) and written back before exit.
//
// --json replaces the per-line sample output with one JSON object on stdout
// ({"spec", "samples": [...], "stats": {...}}) for scripting; diagnostics
// stay on stderr.
//
// --dataset SPEC is the one dataset grammar every tool reads
// (ParseDatasetSpec in datasets/social_datasets.h; README.md, "The CLI").
//
// Exit status: 0 when every requested sample was drawn; 1 when the input
// graph cannot be loaded or a draw fails (the samples drawn so far and the
// stats are still printed); 2 for a malformed flag, dataset or spec.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/registry.h"
#include "core/session.h"
#include "core/spec_keys.h"
#include "datasets/social_datasets.h"
#include "engine/walk_engine.h"
#include "estimation/aggregates.h"
#include "graph/algorithms.h"
#include "graph/io.h"
#include "util/string_util.h"

namespace {

using namespace wnw;

struct Args {
  std::string graph_path;
  DatasetSpec dataset = {.kind = DatasetSpec::Kind::kBarabasiAlbert,
                         .nodes = 10000,
                         .edges = 5};
  std::string spec = "we:srw";
  std::string cache_file;
  uint64_t samples = 100;
  uint64_t seed = 20260611;
  double scale = kDefaultDatasetScale;
  int diameter_bound = 0;  // 0 = estimate via double sweep
  bool estimate_degree = false;
  bool quiet = false;
  bool json = false;
};

// One help entry per spec key: name, type, valid values, default, doc.
void PrintKey(const SpecField& field, const std::string& rules = "") {
  std::fprintf(stderr, "  %-16s %-6s %s%s; default %s\n      %s\n",
               std::string(field.key).c_str(),
               std::string(SpecTypeName(field.type)).c_str(),
               SpecRangeText(field).c_str(), rules.c_str(),
               std::string(field.default_value).c_str(),
               std::string(field.doc).c_str());
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: wnw_sample [--graph FILE | --dataset SPEC] [--spec SAMPLER]\n"
      "                  [--samples N] [--seed S] [--scale X]\n"
      "                  [--diameter-bound D] [--estimate-degree] [--quiet]\n"
      "                  [--json] [--cache_file FILE]\n"
      "dataset SPEC: %s (every tool's grammar; README.md, The CLI)\n"
      "sampler SPEC: <sampler>[:<walk>][?key=value&...], "
      "walk = srw|mhrw|lazy|maxdeg:<bound>\n"
      "registered samplers and their spec keys:\n",
      kDatasetSpecUsage.data());
  const SamplerRegistry& registry = SamplerRegistry::Global();
  for (const auto& name : registry.Names()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 registry.Summary(name).c_str());
    for (const SpecField& field : registry.Keys(name)) PrintKey(field);
  }
  std::fprintf(stderr, "session-reserved spec keys:\n");
  for (const SpecKey& row : ReservedSessionKeys()) {
    std::string rules;
    if (!row.needs.empty()) rules += "; requires " + std::string(row.needs);
    if (!row.conflicts.empty()) {
      rules += "; conflicts " + std::string(row.conflicts);
    }
    PrintKey(row.field, rules);
  }
  std::fprintf(stderr,
               "full spec reference (keys, defaults, valid ranges): "
               "docs/SPEC_STRINGS.md\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--graph") {
      const char* v = next();
      if (v == nullptr) return false;
      args->graph_path = v;
    } else if (flag == "--dataset") {
      const char* v = next();
      if (v == nullptr) return false;
      auto dataset = ParseDatasetSpec(v);
      if (!dataset.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     dataset.status().ToString().c_str());
        return false;
      }
      args->dataset = *dataset;
    } else if (flag == "--spec") {
      const char* v = next();
      if (v == nullptr) return false;
      args->spec = v;
    } else if (flag == "--samples") {
      const char* v = next();
      if (v == nullptr || !ParseUint64(v, &args->samples)) return false;
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr || !ParseUint64(v, &args->seed)) return false;
    } else if (flag == "--scale") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &args->scale)) return false;
    } else if (flag == "--diameter-bound") {
      const char* v = next();
      uint64_t d = 0;
      if (v == nullptr || !ParseUint64(v, &d)) return false;
      args->diameter_bound = static_cast<int>(d);
    } else if (flag == "--cache_file") {
      const char* v = next();
      if (v == nullptr) return false;
      args->cache_file = v;
    } else if (flag == "--estimate-degree") {
      args->estimate_degree = true;
    } else if (flag == "--quiet") {
      args->quiet = true;
    } else if (flag == "--json") {
      args->json = true;
    } else if (flag == "--help" || flag == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

Result<Graph> LoadInputGraph(const Args& args) {
  if (!args.graph_path.empty()) {
    WNW_ASSIGN_OR_RETURN(LoadedGraph loaded, LoadEdgeList(args.graph_path));
    // Walk-based sampling needs one connected piece.
    WNW_ASSIGN_OR_RETURN(Subgraph lcc, LargestComponent(loaded.graph));
    return std::move(lcc.graph);
  }
  return BuildDatasetGraph(args.dataset, args.seed, args.scale);
}

// Spec strings contain no characters needing escapes beyond
// quotes/backslashes (escaped anyway, for arbitrary registry names).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void PrintJsonValue(const std::string& v) {
  std::printf("\"%s\"", JsonEscape(v).c_str());
}
void PrintJsonValue(uint64_t v) {
  std::printf("%llu", static_cast<unsigned long long>(v));
}
void PrintJsonValue(double v) { std::printf("%.6f", v); }
void PrintJsonValue(int v) { std::printf("%d", v); }
void PrintJsonValue(bool v) { std::printf("%s", v ? "true" : "false"); }
template <typename T>
void PrintJsonValue(const std::vector<T>& v) {
  std::printf("[");
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonValue(v[i]);
  }
  std::printf("]");
}

// Emits the samples plus every SessionStats field (kSessionStatsFields) as
// one JSON object; the spec sits at the top level, next to the samples.
void PrintJson(const SessionStats& stats, const std::vector<NodeId>& samples) {
  std::printf("{\n  \"spec\": ");
  PrintJsonValue(stats.spec);
  std::printf(",\n  \"samples\": [");
  for (size_t i = 0; i < samples.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : ", ", samples[i]);
  }
  std::printf("],\n  \"stats\": {");
  const char* separator = "\n";
  for (const SessionStatsField& field : kSessionStatsFields) {
    if (field.name == "spec") continue;
    std::printf("%s    \"%s\": ", separator, field.name.data());
    std::visit([&](auto member) { PrintJsonValue(stats.*member); },
               field.member);
    separator = ",\n";
  }
  std::printf("\n  }\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }

  auto graph_result = LoadInputGraph(args);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }
  const Graph graph = std::move(graph_result).value();
  std::fprintf(stderr, "graph: %s\n", graph.DebugString().c_str());

  auto config_result = SamplerConfig::Parse(args.spec);
  if (!config_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 config_result.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  SamplerConfig config = std::move(config_result).value();

  // WALK-ESTIMATE family: fill in the diameter bound when the spec does not
  // pin one, from --diameter-bound or a double-sweep estimate.
  if (config.sampler.rfind("we", 0) == 0 && !config.params.contains("diameter")) {
    int diameter_bound = args.diameter_bound;
    if (diameter_bound == 0) {
      Rng rng(args.seed + 1);
      diameter_bound = static_cast<int>(
          EstimateDiameterDoubleSweep(graph, rng).value_or(10));
      std::fprintf(stderr, "diameter bound (double sweep): %d\n",
                   diameter_bound);
    }
    config.Set("diameter", std::to_string(diameter_bound));
  }

  // engine=block in the spec routes the whole run through the block
  // scheduler instead of a single sampling session: --samples is spread
  // over the spec's walker count (samples_per_walker = ceil(samples /
  // walkers)), and RunWalkEngine consumes the engine keys itself.
  EngineOptions engine_opts;
  SamplerConfig engine_keys = config;
  const auto engine_selected = ApplyEngineKeys(&engine_keys, &engine_opts);
  if (!engine_selected.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 engine_selected.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (engine_selected->Has("engine")) {
    const uint64_t walkers = engine_opts.walkers;
    engine_opts.samples_per_walker =
        std::max<uint64_t>(1, (args.samples + walkers - 1) / walkers);
    engine_opts.session.seed = args.seed + 2;
    engine_opts.session.cache_file = args.cache_file;
    const auto run = RunWalkEngine(&graph, config, engine_opts);
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
      // A spec the engine rejects is a usage error; a walker whose draw
      // failed mid-run (ResourceExhausted, a backend error) is not.
      const StatusCode code = run.status().code();
      if (code != StatusCode::kInvalidArgument &&
          code != StatusCode::kNotFound) {
        return 1;
      }
      PrintUsage();
      return 2;
    }
    if (args.estimate_degree) {
      std::fprintf(stderr,
                   "note: --estimate-degree needs a session's bias map; "
                   "ignored under engine=block\n");
    }
    if (args.json) {
      PrintJson(run->stats, run->samples);
    } else {
      if (!args.quiet) {
        for (const NodeId v : run->samples) std::printf("%u\n", v);
      }
      std::fprintf(
          stderr,
          "engine: %llu walkers over %llu blocks  %llu steps "
          "(%.0f steps/sec, %llu block switches)\n"
          "drawn: %llu samples  query cost: %llu unique nodes "
          "(%llu API calls)\n",
          static_cast<unsigned long long>(run->stats.engine_walkers),
          static_cast<unsigned long long>(run->stats.engine_blocks),
          static_cast<unsigned long long>(run->stats.engine_steps),
          run->stats.engine_steps_per_sec,
          static_cast<unsigned long long>(run->stats.engine_block_switches),
          static_cast<unsigned long long>(run->stats.samples_drawn),
          static_cast<unsigned long long>(run->stats.query_cost),
          static_cast<unsigned long long>(run->stats.total_queries));
    }
    return 0;
  }

  SessionOptions session_opts;
  session_opts.seed = args.seed + 2;
  session_opts.cache_file = args.cache_file;  // "" = no persistent cache
  auto session_result = SamplingSession::Open(&graph, config, session_opts);
  if (!session_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 session_result.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  SamplingSession& session = **session_result;
  std::fprintf(stderr, "sampler: %s (start node %u)\n",
               session.config().ToSpec().c_str(), session.start());

  // A failed draw ends sampling; what was drawn and the stats are still
  // reported, but the exit code is 1.
  std::vector<NodeId> samples;
  samples.reserve(args.samples);
  bool draw_failed = false;
  while (samples.size() < args.samples) {
    const auto s = session.Draw();
    if (!s.ok()) {
      std::fprintf(stderr, "draw failed: %s\n", s.status().ToString().c_str());
      draw_failed = true;
      break;
    }
    samples.push_back(s.value());
    if (!args.quiet && !args.json) std::printf("%u\n", s.value());
  }

  // Persist the query cache before reading Stats() so the reported state is
  // what the next run will load; surface failures loudly (the destructor
  // would only log them).
  const Status persisted = session.PersistCache();
  if (!persisted.ok()) {
    std::fprintf(stderr, "error: %s\n", persisted.ToString().c_str());
    return 1;
  }

  const SessionStats stats = session.Stats();
  if (args.json) {
    PrintJson(stats, samples);
    return draw_failed ? 1 : 0;
  }
  std::fprintf(stderr,
               "drawn: %llu samples  query cost: %llu unique nodes "
               "(%llu API calls)\n",
               static_cast<unsigned long long>(stats.samples_drawn),
               static_cast<unsigned long long>(stats.query_cost),
               static_cast<unsigned long long>(stats.total_queries));
  if (stats.backend_shards > 1) {
    std::fprintf(stderr, "origin shards: %d  fetches by shard:",
                 stats.backend_shards);
    for (uint64_t f : stats.shard_fetches) {
      std::fprintf(stderr, " %llu", static_cast<unsigned long long>(f));
    }
    std::fprintf(stderr, "\n");
  }
  if (!stats.remote_addr.empty()) {
    std::fprintf(
        stderr, "remote: %s  rpcs: %llu  retries: %llu  wire bytes: %llu\n",
        stats.remote_addr.c_str(),
        static_cast<unsigned long long>(stats.remote_rpcs),
        static_cast<unsigned long long>(stats.remote_retries),
        static_cast<unsigned long long>(stats.remote_bytes));
  }
  if (stats.cache_attached) {
    std::fprintf(stderr,
                 "query cache: %llu entries  hits %llu  misses %llu  "
                 "evictions %llu%s%s\n",
                 static_cast<unsigned long long>(stats.cache_entries),
                 static_cast<unsigned long long>(stats.cache_hits),
                 static_cast<unsigned long long>(stats.cache_misses),
                 static_cast<unsigned long long>(stats.cache_evictions),
                 stats.cache_file.empty() ? "" : "  file ",
                 stats.cache_file.c_str());
  }
  if (stats.candidates_tried > 0) {
    std::fprintf(stderr, "acceptance rate: %.3f (%llu candidates)\n",
                 stats.acceptance_rate,
                 static_cast<unsigned long long>(stats.candidates_tried));
  }
  if (stats.average_burn_in > 0) {
    std::fprintf(stderr, "average burn-in: %.1f steps\n",
                 stats.average_burn_in);
  }
  if (args.estimate_degree && !samples.empty()) {
    const double est = EstimateAverage(
        samples, session.bias(),
        [&](NodeId u) { return static_cast<double>(graph.Degree(u)); },
        [&](NodeId u) { return static_cast<double>(graph.Degree(u)); });
    std::fprintf(stderr, "avg degree estimate: %.4f (true %.4f)\n", est,
                 graph.average_degree());
  }
  return draw_failed ? 1 : 0;
}
