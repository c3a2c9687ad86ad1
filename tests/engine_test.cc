// Block-engine invariants. The load-bearing test is the identity sweep: for
// EVERY registered sampler, under every scheduler order and assorted block
// sizes, RunWalkEngine must emit byte-identical per-walker samples — and
// identical per-walker logical query costs (no shared cache attached) — to
// RunWalkerPool under the same seed. The sweep enumerates the registry, so
// registering a new sampler without an identity case fails here first.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "engine/block_scheduler.h"
#include "engine/walk_engine.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace wnw {
namespace {

using testing::MakeTestBA;
using testing::ToVec;

constexpr uint64_t kSeed = 777;

// A sampler no engine code knows by name: FixedWalkSampler behind a
// test-only registry entry. The engine must run it like any other.
class WrappedWalkSampler final : public Sampler {
 public:
  explicit WrappedWalkSampler(std::unique_ptr<Sampler> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return "wrapped-walk"; }
  Result<NodeId> Draw() override { return inner_->Draw(); }
  double TargetWeight(NodeId u) override { return inner_->TargetWeight(u); }

 private:
  std::unique_ptr<Sampler> inner_;
};

Result<std::unique_ptr<Sampler>> MakeWrappedWalk(
    const SamplerConfig& config, AccessInterface* access,
    const TransitionDesign* design, NodeId start, uint64_t seed) {
  FixedWalkSampler::Options options;
  WNW_RETURN_IF_ERROR(ReadFixedWalkOptions(config, &options));
  return std::unique_ptr<Sampler>(std::make_unique<WrappedWalkSampler>(
      std::make_unique<FixedWalkSampler>(access, design, start, options,
                                         seed)));
}

// Registered during static initialization, so the registry already holds it
// when SpecTableCoversEveryRegisteredSampler enumerates the names.
const bool kWrappedWalkRegistered =
    SamplerRegistry::Global()
        .Register("test-wrapped-walk",
                  {"test only: FixedWalkSampler under a fresh name (steps)",
                   MakeWrappedWalk})
        .ok();

// test-wrapped-walk that refuses to start at the node named by its
// refuse_start= key, so a test can fail one walker's set-up on the engine's
// workers. Without the key it is test-wrapped-walk under another name.
Result<std::unique_ptr<Sampler>> MakeRefusingWalk(
    const SamplerConfig& config, AccessInterface* access,
    const TransitionDesign* design, NodeId start, uint64_t seed) {
  SamplerConfig walk = config;
  if (const auto refuse = walk.params.find("refuse_start");
      refuse != walk.params.end()) {
    if (refuse->second == std::to_string(start)) {
      return Status::FailedPrecondition("test-refusing-walk refuses start " +
                                        refuse->second);
    }
    walk.params.erase(refuse);
  }
  return MakeWrappedWalk(walk, access, design, start, seed);
}

const bool kRefusingWalkRegistered =
    SamplerRegistry::Global()
        .Register("test-refusing-walk",
                  {"test only: test-wrapped-walk that refuses one start "
                   "node (steps, refuse_start)",
                   MakeRefusingWalk})
        .ok();

struct SpecCase {
  const char* registry_name;
  const char* spec;
};

// One representative per registered sampler (small caps keep the sweep
// fast), plus extra walk-design coverage where the engine has dedicated
// step replication.
const SpecCase kIdentitySpecs[] = {
    {"walk", "walk:srw?steps=5"},
    {"walk", "walk:mhrw?steps=4"},
    {"walk", "walk:lazy?steps=4"},
    {"burnin", "burnin:srw?max_steps=300"},
    {"longrun", "longrun:lazy?thinning=3&max_steps=300"},
    {"longrun", "longrun:srw?min_steps=0&max_steps=300"},
    {"we", "we:mhrw?diameter=2"},
    {"we-path", "we-path:srw?diameter=2"},
    {"test-wrapped-walk", "test-wrapped-walk:mhrw?steps=4"},
    {"test-refusing-walk", "test-refusing-walk:srw?steps=3"},
};

WalkerPoolOptions PoolOptions(int walkers, uint64_t samples) {
  WalkerPoolOptions options;
  options.walkers = walkers;
  options.samples_per_walker = samples;
  options.session.seed = kSeed;
  return options;
}

EngineOptions BaseEngineOptions(uint64_t walkers, uint64_t samples) {
  EngineOptions options;
  options.walkers = walkers;
  options.samples_per_walker = samples;
  options.session.seed = kSeed;
  return options;
}

void ExpectIdentical(const WalkerPoolResult& pool, const EngineResult& engine,
                     const std::string& label) {
  ASSERT_EQ(pool.samples.size(), engine.walker_stats.size()) << label;
  for (size_t w = 0; w < pool.samples.size(); ++w) {
    EXPECT_EQ(pool.samples[w], ToVec(engine.SamplesFor(w)))
        << label << " walker " << w << ": samples diverged";
    EXPECT_EQ(pool.stats[w].query_cost, engine.walker_stats[w].query_cost)
        << label << " walker " << w << ": query_cost diverged";
    EXPECT_EQ(pool.stats[w].total_queries,
              engine.walker_stats[w].total_queries)
        << label << " walker " << w << ": total_queries diverged";
    EXPECT_EQ(pool.samples[w].size(), engine.walker_stats[w].emitted)
        << label << " walker " << w << ": emitted diverged";
  }
}

// The start node the engine and the pool give walker g when none is pinned:
// the session seed Mix64(seed ^ (0x3a1c0000 + g)) draws the sampler seed,
// then the start.
NodeId StartOf(uint64_t g, NodeId num_nodes) {
  RngCore chain(Mix64(Mix64(kSeed ^ (uint64_t{0x3a1c0000u} + g))));
  chain.Next();
  return static_cast<NodeId>(chain.NextBounded(num_nodes));
}

TEST(WalkEngine, SpecTableCoversEveryRegisteredSampler) {
  std::set<std::string> covered;
  for (const SpecCase& c : kIdentitySpecs) covered.insert(c.registry_name);
  const std::vector<std::string> names = SamplerRegistry::Global().Names();
  EXPECT_EQ(covered, std::set<std::string>(names.begin(), names.end()))
      << "a sampler was registered without a block-engine identity case — "
         "add it to kIdentitySpecs";
}

TEST(WalkEngine, RunsASamplerRegisteredOutsideTheEngine) {
  ASSERT_TRUE(kWrappedWalkRegistered);
  const Graph graph = MakeTestBA(300, 3);
  const char* spec = "test-wrapped-walk:srw?steps=5";
  const auto pool = RunWalkerPool(&graph, spec, PoolOptions(6, 4));
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EngineOptions options = BaseEngineOptions(6, 4);
  options.block_nodes = 16;
  const auto engine = RunWalkEngine(&graph, spec, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExpectIdentical(*pool, *engine, spec);
  EXPECT_EQ(engine->stats.sampler, "block-engine(wrapped-walk)");
}

TEST(WalkEngine, AcceptsAndRejectsTheSpecsThePoolDoes) {
  const Graph graph = MakeTestBA(100, 3);
  for (const char* spec :
       {"longrun:srw?min_steps=0&max_steps=10", "walk:srw?steps=3",
        "we-path:srw?max_walks=0", "we:mhrw?diameter=2000000000",
        "we:mhrw?walk_length=2000000000", "burnin:srw?min_steps=0",
        "walk:srw?steps=0", "we:mhrw?bogus=1", "nope:srw", "walk:bogus",
        "walk:maxdeg:3?steps=3", "we:maxdeg:3",
        "walk:maxdeg:4294967297?steps=3"}) {
    const auto session =
        SamplingSession::Open(&graph, spec, PoolOptions(2, 2).session);
    const auto pool = RunWalkerPool(&graph, spec, PoolOptions(2, 2));
    const auto engine =
        RunWalkEngine(&graph, spec, BaseEngineOptions(2, 2));
    EXPECT_EQ(pool.ok(), engine.ok()) << spec;
    EXPECT_EQ(pool.status().code(), engine.status().code()) << spec;
    EXPECT_EQ(session.status().code(), pool.status().code()) << spec;
    if (std::string_view(spec).find("maxdeg") != std::string_view::npos) {
      EXPECT_EQ(engine.status().ToString(), session.status().ToString());
    }
  }
}

TEST(WalkEngine, ByteIdenticalToWalkerPoolForEverySampler) {
  const Graph graph = MakeTestBA(300, 3);
  constexpr int kWalkers = 8;
  constexpr uint64_t kSamples = 5;
  const ScheduleOrder kOrders[] = {ScheduleOrder::kMostPending,
                                   ScheduleOrder::kRoundRobin,
                                   ScheduleOrder::kLeastPending};
  const uint32_t kBlockSizes[] = {7, 64, 0};  // 0 = derived default

  for (const SpecCase& c : kIdentitySpecs) {
    const auto pool =
        RunWalkerPool(&graph, c.spec, PoolOptions(kWalkers, kSamples));
    ASSERT_TRUE(pool.ok()) << c.spec << ": " << pool.status().ToString();
    for (const ScheduleOrder order : kOrders) {
      for (const uint32_t block : kBlockSizes) {
        EngineOptions options = BaseEngineOptions(kWalkers, kSamples);
        options.block_nodes = block;
        options.schedule.order = order;
        options.threads = 3;
        const auto engine = RunWalkEngine(&graph, c.spec, options);
        const std::string label =
            std::string(c.spec) + " order=" +
            std::string(ScheduleOrderKey(order)) +
            " block=" + std::to_string(block);
        ASSERT_TRUE(engine.ok())
            << label << ": " << engine.status().ToString();
        ExpectIdentical(*pool, *engine, label);
      }
    }
  }
}

TEST(WalkEngine, IdentityHoldsUnderSpecKeysAndPinnedStart) {
  const Graph graph = MakeTestBA(300, 3);
  WalkerPoolOptions pool_options = PoolOptions(6, 4);
  pool_options.session.start = 17;
  const auto pool = RunWalkerPool(&graph, "walk:srw?steps=6", pool_options);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();

  // walkers= and block= ride in the spec string; engine= selects the path.
  EngineOptions options = BaseEngineOptions(1, 4);  // overridden by spec
  options.session.start = 17;
  const auto engine = RunWalkEngine(
      &graph, "walk:srw?steps=6&engine=block&walkers=6&block=32", options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->stats.engine_walkers, 6u);
  ExpectIdentical(*pool, *engine, "spec-keyed run");
}

TEST(WalkEngine, IdentityHoldsInSessionModeUnderRestriction) {
  // A deterministic restriction (type 3, truncated lists) forces the `walk`
  // sampler off the flat fast path into session mode; identity must hold
  // there too. The view's maximum degree is max_neighbors, so maxdeg:3 runs
  // and maxdeg:2 is refused by both.
  const Graph graph = MakeTestBA(300, 4);
  WalkerPoolOptions pool_options = PoolOptions(6, 4);
  pool_options.session.access.restriction = NeighborRestriction::kTruncated;
  pool_options.session.access.max_neighbors = 3;
  EngineOptions options = BaseEngineOptions(6, 4);
  options.session.access = pool_options.session.access;
  options.block_nodes = 16;
  for (const char* spec : {"walk:srw?steps=5", "walk:maxdeg:3?steps=5"}) {
    const auto pool = RunWalkerPool(&graph, spec, pool_options);
    ASSERT_TRUE(pool.ok()) << spec << ": " << pool.status().ToString();
    const auto engine = RunWalkEngine(&graph, spec, options);
    ASSERT_TRUE(engine.ok()) << spec << ": " << engine.status().ToString();
    ExpectIdentical(*pool, *engine, spec);
  }
  const auto pool = RunWalkerPool(&graph, "walk:maxdeg:2", pool_options);
  const auto engine = RunWalkEngine(&graph, "walk:maxdeg:2", options);
  EXPECT_EQ(pool.status().ToString(),
            "InvalidArgument: maxdeg bound 2 is below the view's maximum "
            "degree 3");
  EXPECT_EQ(engine.status().ToString(), pool.status().ToString());
}

TEST(WalkEngine, IdentityHoldsAcrossCohortBoundaries) {
  // Cohorts bound session-mode residency; walkers are independent, so
  // splitting them across cohorts must not change anything.
  const Graph graph = MakeTestBA(200, 3);
  const auto pool = RunWalkerPool(&graph, "burnin:srw?max_steps=200",
                                  PoolOptions(9, 3));
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();

  EngineOptions options = BaseEngineOptions(9, 3);
  options.cohort = 4;  // 4 + 4 + 1
  const auto engine =
      RunWalkEngine(&graph, "burnin:srw?max_steps=200", options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
#if defined(__linux__)
  // Real memory now: peak resident-set bytes sampled from /proc/self/statm.
  EXPECT_GT(engine->stats.engine_resident_peak, 0u);
#endif
  ExpectIdentical(*pool, *engine, "cohort=4");
}

// --- the flat walker's inline distinct-node set -----------------------------

// WalkerMeter against a std::set over the same fetches: exactly kInline
// distinct nodes, the spill, revisits of nodes first held inline and of
// spilled ones, then a long random tail that regrows the heap array.
TEST(WalkerMeter, BillsLikeASetAcrossTheInlineBoundary) {
  const Graph graph = MakeTestBA(300, 3);
  constexpr NodeId kInline = WalkerMeter::kInline;
  std::vector<NodeId> fetches;
  // Descending, so the set must be sorted when it spills.
  for (NodeId u = kInline; u-- > 0;) fetches.push_back(10 * u);
  fetches.push_back(20);            // inline revisit before the spill
  fetches.push_back(7);             // distinct node kInline + 1: spills
  fetches.push_back(0);             // first-inline revisit after spilling
  fetches.push_back(7);             // spilled revisit
  fetches.push_back(3);             // second spill, sorted before 7
  Rng rng(kSeed);
  for (int i = 0; i < 400; ++i) {
    fetches.push_back(static_cast<NodeId>(rng.NextBounded(60)));
  }

  CostMeter physical;
  FlatScan scan;
  scan.direct = &graph;
  scan.physical = &physical;
  WalkerMeter meter;
  std::set<NodeId> distinct;
  uint64_t bytes = 0;
  for (size_t i = 0; i < fetches.size(); ++i) {
    const NodeId u = fetches[i];
    EXPECT_EQ(ToVec(meter.Fetch(scan, u)), ToVec(graph.Neighbors(u)));
    distinct.insert(u);
    bytes += graph.Neighbors(u).size_bytes();
    ASSERT_EQ(meter.unique_cost(), distinct.size()) << "fetch " << i;
    if (i + 1 == kInline) EXPECT_EQ(meter.unique_cost(), kInline);
    if (i == kInline + 1) EXPECT_EQ(meter.unique_cost(), kInline + 1);
  }
  EXPECT_EQ(meter.total_queries(), fetches.size());
  EXPECT_EQ(physical.backend_fetches, fetches.size());
  EXPECT_EQ(scan.bytes_scanned, bytes);

  // Moves carry the set, inline or spilled, and leave the source empty.
  WalkerMeter moved(std::move(meter));
  EXPECT_EQ(moved.unique_cost(), distinct.size());
  EXPECT_EQ(meter.unique_cost(), 0u);
  moved.Fetch(scan, 0);
  moved.Fetch(scan, 299);
  EXPECT_EQ(moved.unique_cost(), distinct.size() + 1);
  WalkerMeter short_walk;
  short_walk.Fetch(scan, 5);
  moved = std::move(short_walk);
  EXPECT_EQ(moved.unique_cost(), 1u);
  EXPECT_EQ(moved.total_queries(), 1u);
  moved.Fetch(scan, 5);
  EXPECT_EQ(moved.unique_cost(), 1u);
}

// Did some walker fetch its start node again after its distinct-node set
// had spilled past the inline array? The start is the first node a flat
// walker fetches, so it was held inline before the spill. With steps=1 the samples are
// the path, and a walker that leaves s[i] fetched it, so the distinct
// nodes it left before returning to the start bound its set from below.
bool RevisitsStartAfterSpilling(NodeId start, std::span<const NodeId> path) {
  std::set<NodeId> left;
  NodeId at = start;
  for (const NodeId next : path) {
    if (next != at) {
      if (at == start && left.size() > WalkerMeter::kInline) return true;
      left.insert(at);
    }
    at = next;
  }
  return false;
}

// Engine == pool for flat walks around the inline boundary, for every
// built-in design's step kernel: some walker ends at exactly kInline
// distinct nodes, some at kInline + 1, and some returns to its start (first
// held inline) after spilling.
TEST(WalkEngine, IdentityHoldsAcrossTheInlineSetBoundary) {
  const Graph graph = MakeTestBA(300, 3);
  NodeId hub = 0;
  for (NodeId u = 1; u < graph.num_nodes(); ++u) {
    if (graph.Degree(u) > graph.Degree(hub)) hub = u;
  }
  const std::string maxdeg = "maxdeg:" + std::to_string(graph.Degree(hub));
  constexpr int kWalkers = 24;
  constexpr uint64_t kInline = WalkerMeter::kInline;
  for (const std::string walk : {std::string("srw"), std::string("mhrw"),
                                 std::string("lazy"), maxdeg}) {
    const std::string spec = "walk:" + walk + "?steps=1";
    bool exactly = false, one_past = false, revisit = false;
    for (const uint64_t samples :
         {kInline, 2 * kInline, 8 * kInline, 64 * kInline}) {
      WalkerPoolOptions pool_options = PoolOptions(kWalkers, samples);
      pool_options.session.start = hub;
      const auto pool = RunWalkerPool(&graph, spec, pool_options);
      ASSERT_TRUE(pool.ok()) << spec << ": " << pool.status().ToString();
      EngineOptions options = BaseEngineOptions(kWalkers, samples);
      options.session.start = hub;
      options.block_nodes = 16;
      options.threads = 3;
      const auto engine = RunWalkEngine(&graph, spec, options);
      ASSERT_TRUE(engine.ok()) << spec << ": " << engine.status().ToString();
      ExpectIdentical(*pool, *engine, spec + " samples=" +
                                          std::to_string(samples));
      for (size_t w = 0; w < kWalkers; ++w) {
        const uint64_t cost = engine->walker_stats[w].query_cost;
        exactly |= cost == kInline;
        one_past |= cost == kInline + 1;
        revisit |= RevisitsStartAfterSpilling(hub, engine->SamplesFor(w));
      }
    }
    EXPECT_TRUE(exactly) << spec << ": no walker at exactly kInline nodes";
    EXPECT_TRUE(one_past) << spec << ": no walker at kInline + 1 nodes";
    EXPECT_TRUE(revisit) << spec << ": no revisit of the start after a spill";
  }
}

// Each worker sets up and harvests its own slice of the cohort, so the
// slices must not show in the output: thread counts above, at and below the
// walker count, walker counts that do not split evenly, in flat mode and in
// session mode, each across cohort boundaries too. The run's totals are
// the workers' partial sums folded together.
TEST(WalkEngine, IdentityHoldsForEveryThreadCount) {
  const Graph graph = MakeTestBA(300, 3);
  struct Case {
    const char* spec;
    int walkers;
    uint64_t cohort;  // 0 = the mode's default
  };
  const Case kCases[] = {
      {"walk:srw?steps=5", 3, 0},
      {"walk:mhrw?steps=4", 37, 0},
      {"walk:lazy?steps=4", 29, 10},
      {"burnin:srw?max_steps=200", 7, 0},
      {"we:mhrw?diameter=2", 23, 6},
  };
  constexpr uint64_t kSamples = 3;
  for (const Case& c : kCases) {
    const auto pool =
        RunWalkerPool(&graph, c.spec, PoolOptions(c.walkers, kSamples));
    ASSERT_TRUE(pool.ok()) << c.spec << ": " << pool.status().ToString();
    for (const int threads : {1, 2, 3, 5, 8}) {
      EngineOptions options = BaseEngineOptions(c.walkers, kSamples);
      options.cohort = c.cohort;
      options.threads = threads;
      options.block_nodes = 16;
      const auto engine = RunWalkEngine(&graph, c.spec, options);
      const std::string label = std::string(c.spec) + " walkers=" +
                                std::to_string(c.walkers) + " cohort=" +
                                std::to_string(c.cohort) +
                                " threads=" + std::to_string(threads);
      ASSERT_TRUE(engine.ok()) << label << ": " << engine.status().ToString();
      ExpectIdentical(*pool, *engine, label);
      uint64_t query_cost = 0, total_queries = 0, emitted = 0;
      for (const EngineWalkerStats& w : engine->walker_stats) {
        query_cost += w.query_cost;
        total_queries += w.total_queries;
        emitted += w.emitted;
      }
      EXPECT_EQ(engine->stats.query_cost, query_cost) << label;
      EXPECT_EQ(engine->stats.total_queries, total_queries) << label;
      EXPECT_EQ(engine->stats.samples_drawn, emitted) << label;
      EXPECT_EQ(emitted, c.walkers * kSamples) << label;
    }
  }
}

TEST(WalkEngine, BytesScannedDoNotDependOnThreads) {
  const Graph graph = MakeTestBA(300, 3);
  uint64_t bytes[2] = {0, 0};
  for (const int threads : {1, 3}) {
    EngineOptions options = BaseEngineOptions(200, 3);
    options.block_nodes = 16;
    options.threads = threads;
    const auto engine = RunWalkEngine(&graph, "walk:mhrw?steps=6", options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    bytes[threads == 1 ? 0 : 1] = engine->stats.engine_bytes_scanned;
  }
  EXPECT_GT(bytes[0], 0u);
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(WalkEngine, MillionWalkerSmoke) {
  // The scale story: 1M logical walkers on a few OS threads, POD state
  // only. Two steps each keeps the test quick while still exercising the
  // full bucket/schedule/drain machinery.
  const Graph graph = MakeTestBA(2000, 4);
  EngineOptions options = BaseEngineOptions(1'000'000, 1);
  SamplerConfig config;
  config.sampler = "walk";
  config.walk = "srw";
  config.params["steps"] = "2";
  const auto engine = RunWalkEngine(&graph, config, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->stats.engine_walkers, 1'000'000u);
  EXPECT_EQ(engine->stats.samples_drawn, 1'000'000u);
  EXPECT_EQ(engine->stats.engine_steps, 2'000'000u);
  EXPECT_FALSE(engine->stopped_early);
  EXPECT_GT(engine->stats.engine_bytes_scanned, 0u);
  for (const NodeId v : engine->samples) {
    ASSERT_LT(v, graph.num_nodes());
  }
}

TEST(WalkEngine, MaxStepsStopsPromptlyAndCleanly) {
  const Graph graph = MakeTestBA(300, 3);
  EngineOptions options = BaseEngineOptions(50, 1);
  options.max_steps = 100;
  options.threads = 4;
  const auto engine =
      RunWalkEngine(&graph, "walk:srw?steps=100000", options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine->stopped_early);
  // Budget overshoot is bounded by the in-flight workers, not the workload.
  EXPECT_LT(engine->stats.engine_steps, 100u + 64u);
  uint64_t emitted = 0;
  for (const auto& w : engine->walker_stats) emitted += w.emitted;
  EXPECT_EQ(emitted, engine->stats.samples_drawn);
}

// A step budget that runs out mid-sweep stops every worker, and each still
// harvests its whole slice: the walkers stopped part-way through a draw
// keep the queries they made. An srw step fetches one neighbor list, so the
// harvested queries add up to the steps taken exactly when no walker is
// left out.
TEST(WalkEngine, MaxStepsMidSweepStillHarvestsEveryWalker) {
  const Graph graph = MakeTestBA(300, 3);
  for (const int threads : {1, 3, 4}) {
    EngineOptions options = BaseEngineOptions(200, 2);
    options.max_steps = 500;
    options.threads = threads;
    options.block_nodes = 16;
    const auto engine = RunWalkEngine(&graph, "walk:srw?steps=4", options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_TRUE(engine->stopped_early);
    uint64_t queries = 0, emitted = 0, mid_draw = 0;
    for (const EngineWalkerStats& w : engine->walker_stats) {
      EXPECT_LE(w.query_cost, w.total_queries);
      queries += w.total_queries;
      emitted += w.emitted;
      mid_draw += w.total_queries > 4 * w.emitted ? 1 : 0;
    }
    EXPECT_EQ(queries, engine->stats.engine_steps) << "threads=" << threads;
    EXPECT_EQ(engine->stats.total_queries, queries);
    EXPECT_EQ(engine->stats.samples_drawn, emitted);
    EXPECT_LT(emitted, 400u);
    EXPECT_GT(mid_draw, 0u) << "no walker was stopped mid-draw";
  }
}

// A walker whose Init fails on a worker fails the run with its Status, and
// every record and session already set up, on that worker and on the
// others, is destroyed (an ASan build checks that none leaks). The refused
// walker sits in the second cohort, in the middle of its cohort, and no
// other walker starts where it does.
TEST(WalkEngine, InitFailureInOneSliceIsItsStatus) {
  ASSERT_TRUE(kRefusingWalkRegistered);
  const Graph graph = MakeTestBA(300, 3);
  constexpr uint64_t kWalkers = 40;
  constexpr uint64_t kCohort = 16;
  uint64_t refused = kWalkers;
  for (uint64_t g = kCohort + kCohort / 2; g < kWalkers; ++g) {
    const NodeId start = StartOf(g, graph.num_nodes());
    bool unique = start != 0;  // the spec's probe starts at 0
    for (uint64_t o = 0; o < kWalkers; ++o) {
      if (o != g && StartOf(o, graph.num_nodes()) == start) unique = false;
    }
    if (unique) {
      refused = g;
      break;
    }
  }
  ASSERT_LT(refused, kWalkers) << "no walker with a start of its own";
  const std::string start =
      std::to_string(StartOf(refused, graph.num_nodes()));
  const std::string spec =
      "test-refusing-walk:srw?steps=3&refuse_start=" + start;
  for (const int threads : {1, 3, 4}) {
    EngineOptions options = BaseEngineOptions(kWalkers, 2);
    options.cohort = kCohort;
    options.threads = threads;
    const auto engine = RunWalkEngine(&graph, spec, options);
    ASSERT_FALSE(engine.ok()) << "threads=" << threads;
    EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine.status().message(),
              "test-refusing-walk refuses start " + start);
  }
  // The start the pool draws for that walker is the one refused.
  const auto pool = RunWalkerPool(&graph, spec, PoolOptions(kWalkers, 2));
  ASSERT_FALSE(pool.ok());
  EXPECT_EQ(pool.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WalkEngine, RejectsNonDeterministicBackend) {
  const Graph graph = MakeTestBA(100, 3);
  EngineOptions options = BaseEngineOptions(4, 2);
  options.session.access.restriction = NeighborRestriction::kRandomSubset;
  options.session.access.max_neighbors = 3;
  const auto engine = RunWalkEngine(&graph, "walk:srw?steps=3", options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

// A thread the engine cannot spawn is a Status, not a std::system_error
// escaping into std::terminate. Each child caps its own address space so
// that the next thread stack does not fit; the children are fresh
// processes ("threadsafe" style), so no joined thread's cached stack is
// there to reuse.
TEST(WalkEngine, SamplerThatCannotStartIsResourceExhausted) {
  const Graph graph = MakeTestBA(300, 3);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        EngineOptions options = BaseEngineOptions(8, 2);
        options.threads = 2;
        testing::CapAddressSpace(testing::DefaultThreadStack() / 4);
        testing::ExitWithStatus(
            RunWalkEngine(&graph, "walk:srw?steps=5", options).status());
      },
      ::testing::ExitedWithCode(0), "resident-set sampler");
}

TEST(WalkEngine, WorkerThatCannotStartStopsTheWorkersStarted) {
  const Graph graph = MakeTestBA(300, 3);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        // Room for about two thread stacks. In a plain or ASan build the
        // resident-set sampler and worker 0 start and worker 1 does not;
        // worker 0 is then stopped and joined. TSan's per-thread state
        // leaves no room for worker 0.
        EngineOptions options = BaseEngineOptions(8, 2);
        options.threads = 3;
        const size_t stack = testing::DefaultThreadStack();
        testing::CapAddressSpace(2 * stack + stack / 2);
        testing::ExitWithStatus(
            RunWalkEngine(&graph, "walk:srw?steps=5", options).status());
      },
      ::testing::ExitedWithCode(0), "cannot start worker thread");
}

TEST(WalkEngine, ResidencyPrefetcherThatCannotStartIsResourceExhausted) {
  // A residency budget over a mapped graph makes the engine start the
  // residency manager's prefetcher thread first; a failed spawn comes back
  // through RunWalkEngine like the engine's own.
  const std::string path =
      ::testing::TempDir() + "wnw_engine_test_residency.snap";
  ASSERT_TRUE(WriteGraphSnapshot(MakeTestBA(300, 3), path).ok());
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const Graph mapped = LoadGraphSnapshot(path).value().graph;
        EngineOptions options = BaseEngineOptions(8, 2);
        options.threads = 2;
        options.residency_budget_bytes = 1 << 20;
        testing::CapAddressSpace(testing::DefaultThreadStack() / 4);
        testing::ExitWithStatus(
            RunWalkEngine(&mapped, "walk:srw?steps=5", options).status());
      },
      ::testing::ExitedWithCode(0), "prefetcher thread");
  std::remove(path.c_str());
}

// Memory the engine cannot get is a Status too, not a std::bad_alloc or a
// failed mapping escaping into std::terminate.
TEST(WalkEngine, AllocationThatFailsIsResourceExhausted) {
  const Graph graph = MakeTestBA(300, 3);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // 4M walkers: their 16 MB of sample slots and 96 MB of stats fit under
  // the cap, their 384 MB of walker records do not.
  EXPECT_EXIT(
      {
        EngineOptions options = BaseEngineOptions(4'000'000, 1);
        options.threads = 1;
        testing::CapAddressSpace(size_t{256} << 20);
        testing::ExitWithStatus(
            RunWalkEngine(&graph, "walk:srw?steps=5", options).status());
      },
      ::testing::ExitedWithCode(0), "records of 4000000 walkers");
  // 2^30 walkers: the sample slots alone (4 GiB) do not fit. A sanitizer's
  // allocator reports an allocation it cannot map and aborts instead of
  // throwing, so only plain builds can reach the engine's handler here.
  if (testing::kSanitized) return;
  EXPECT_EXIT(
      {
        EngineOptions options = BaseEngineOptions(uint64_t{1} << 30, 1);
        options.threads = 1;
        testing::CapAddressSpace(size_t{256} << 20);
        testing::ExitWithStatus(
            RunWalkEngine(&graph, "walk:srw?steps=5", options).status());
      },
      ::testing::ExitedWithCode(0), "cannot allocate 1073741824 sample slots");
}

TEST(WalkEngine, WorkerOutOfMemoryIsResourceExhausted) {
  // A sanitizer's allocator aborts on an allocation it cannot map instead
  // of throwing, so only plain builds reach the worker's handler.
  if (testing::kSanitized) GTEST_SKIP() << "allocation failure aborts";
  // Session mode: each walker the worker sets up owns an access session
  // with a one-byte-per-node seen table, 4 MB here, so the cohort's 64
  // walkers need 256 MB. The cap leaves room for the spec's probe session
  // and a few walkers, not all of them.
  constexpr NodeId kNodes = 4'000'000;
  const Graph graph = MakeCycle(kNodes).value();
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        EngineOptions options = BaseEngineOptions(64, 1);
        options.threads = 1;
        testing::CapAddressSpace(size_t{128} << 20);
        testing::ExitWithStatus(
            RunWalkEngine(&graph, "burnin:srw?min_steps=1&max_steps=4", options)
                .status());
      },
      ::testing::ExitedWithCode(0),
      "worker 0 ran out of memory setting up walkers");
}

// --- BlockScheduler ----------------------------------------------------------

TEST(BlockScheduler, MostPendingPicksLargestAndZeroes) {
  BlockScheduler sched(4);
  sched.Add(1, 3);
  sched.Add(2, 5);
  sched.Add(3, 5);
  EXPECT_EQ(sched.Acquire(), 2u);  // ties go to the lowest block id
  EXPECT_EQ(sched.pending(2), 0u);
  EXPECT_EQ(sched.Acquire(), 3u);
  EXPECT_EQ(sched.Acquire(), 1u);
  EXPECT_EQ(sched.Acquire(), BlockScheduler::kNone);
  EXPECT_EQ(sched.acquires(), 3u);
}

TEST(BlockScheduler, LeastPendingPicksSmallestNonempty) {
  BlockScheduler sched(4, {.order = ScheduleOrder::kLeastPending});
  sched.Add(0, 9);
  sched.Add(2, 1);
  EXPECT_EQ(sched.Acquire(), 2u);
  EXPECT_EQ(sched.Acquire(), 0u);
}

TEST(BlockScheduler, RoundRobinCycles) {
  BlockScheduler sched(3, {.order = ScheduleOrder::kRoundRobin});
  sched.Add(0, 1);
  sched.Add(1, 1);
  sched.Add(2, 1);
  EXPECT_EQ(sched.Acquire(), 0u);
  sched.Add(0, 1);
  EXPECT_EQ(sched.Acquire(), 1u);  // cursor moved past 0
  EXPECT_EQ(sched.Acquire(), 2u);
  EXPECT_EQ(sched.Acquire(), 0u);
}

TEST(BlockScheduler, AgingPreventsStarvation) {
  // Block 1 holds a single walker while block 0 keeps refilling with more;
  // greedy most-pending would starve block 1 forever, aging must not.
  BlockScheduler sched(2, {.order = ScheduleOrder::kMostPending,
                           .aging_rounds = 3});
  sched.Add(1, 1);
  bool served = false;
  for (int round = 0; round < 10; ++round) {
    sched.Add(0, 100);
    if (sched.Acquire() == 1u) {
      served = true;
      break;
    }
  }
  EXPECT_TRUE(served) << "aging never preempted the hot block";
  // And it must kick in within aging_rounds + 1 passes, not eventually.
  BlockScheduler strict(2, {.order = ScheduleOrder::kMostPending,
                            .aging_rounds = 3});
  strict.Add(1, 1);
  int rounds = 0;
  while (rounds < 10) {
    strict.Add(0, 100);
    ++rounds;
    if (strict.Acquire() == 1u) break;
  }
  EXPECT_LE(rounds, 4);
}

TEST(BlockScheduler, PeekUpcomingMatchesAcquireMostPending) {
  BlockScheduler sched(4);
  sched.Add(1, 3);
  sched.Add(2, 5);
  sched.Add(3, 5);
  const std::vector<size_t> peek = sched.PeekUpcoming(4);
  ASSERT_EQ(peek, (std::vector<size_t>{2, 3, 1}));  // 3 pending blocks only
  // Peeking is pure: counters, ages, and the acquire count are untouched,
  // and a second peek agrees.
  EXPECT_EQ(sched.pending(2), 5u);
  EXPECT_EQ(sched.total_pending(), 13u);
  EXPECT_EQ(sched.acquires(), 0u);
  EXPECT_EQ(sched.PeekUpcoming(4), peek);
  // The real Acquire sequence is exactly the prediction.
  for (const size_t expected : peek) {
    EXPECT_EQ(sched.Acquire(), expected);
  }
  EXPECT_EQ(sched.Acquire(), BlockScheduler::kNone);
}

TEST(BlockScheduler, PeekUpcomingMatchesAcquireLeastPending) {
  BlockScheduler sched(4, {.order = ScheduleOrder::kLeastPending});
  sched.Add(0, 9);
  sched.Add(2, 1);
  sched.Add(3, 4);
  const std::vector<size_t> peek = sched.PeekUpcoming(3);
  ASSERT_EQ(peek, (std::vector<size_t>{2, 3, 0}));
  for (const size_t expected : peek) {
    EXPECT_EQ(sched.Acquire(), expected);
  }
}

TEST(BlockScheduler, PeekUpcomingMatchesAcquireRoundRobin) {
  BlockScheduler sched(3, {.order = ScheduleOrder::kRoundRobin});
  sched.Add(0, 1);
  sched.Add(1, 1);
  sched.Add(2, 1);
  EXPECT_EQ(sched.PeekUpcoming(3), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(sched.Acquire(), 0u);
  sched.Add(0, 1);  // refilled behind the cursor: comes around last
  const std::vector<size_t> peek = sched.PeekUpcoming(3);
  ASSERT_EQ(peek, (std::vector<size_t>{1, 2, 0}));
  for (const size_t expected : peek) {
    EXPECT_EQ(sched.Acquire(), expected);
  }
}

TEST(BlockScheduler, PeekUpcomingHonorsAgingPreemption) {
  BlockScheduler sched(2, {.order = ScheduleOrder::kMostPending,
                           .aging_rounds = 3});
  sched.Add(1, 1);
  for (int round = 0; round < 3; ++round) {
    sched.Add(0, 100);
    EXPECT_EQ(sched.Acquire(), 0u);  // block 1 passed over, aging up
  }
  sched.Add(0, 100);
  // Age 3 reached: the prediction must preempt greedy most-pending exactly
  // like Acquire will.
  const std::vector<size_t> peek = sched.PeekUpcoming(2);
  ASSERT_EQ(peek, (std::vector<size_t>{1, 0}));
  EXPECT_EQ(sched.Acquire(), 1u);
  EXPECT_EQ(sched.Acquire(), 0u);
}

TEST(BlockScheduler, PeekUpcomingBoundsAndEmpty) {
  BlockScheduler sched(3);
  EXPECT_TRUE(sched.PeekUpcoming(4).empty());  // nothing pending
  sched.Add(1, 2);
  EXPECT_TRUE(sched.PeekUpcoming(0).empty());
  EXPECT_EQ(sched.PeekUpcoming(8), (std::vector<size_t>{1}));
}

TEST(BlockScheduler, ParseOrderRoundTrips) {
  for (const ScheduleOrder order : {ScheduleOrder::kMostPending,
                                    ScheduleOrder::kRoundRobin,
                                    ScheduleOrder::kLeastPending}) {
    const auto parsed = ParseScheduleOrder(ScheduleOrderKey(order));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, order);
  }
  EXPECT_FALSE(ParseScheduleOrder("fifo").ok());
}

}  // namespace
}  // namespace wnw
