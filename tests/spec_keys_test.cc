// The session-reserved spec keys, one table row per case: for every key an
// accepted value and the options it resolves to, its range boundaries, every
// requires/conflicts rule between keys, and every conflict with an explicit
// SessionOptions resource. A row's expectation is either the rendered
// resolved options (Describe below) or the error code name, so the whole
// resolution — not just accept/reject — is pinned down.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/spec_keys.h"
#include "engine/walk_engine.h"
#include "net/server.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/check.h"
#include "util/string_util.h"

namespace wnw {
namespace {

using Preset = std::function<void(SessionOptions*)>;

struct Row {
  std::string keys;  // reserved keys, appended to the base spec
  std::string want;  // Describe() of the resolved options, or a code name
  Preset preset = nullptr;
};

constexpr const char* kInvalid = "InvalidArgument";

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Everything ResolveSessionResources leaves observable, as one string.
std::string Describe(const SessionOptions& o) {
  // A remote backend's name carries the ephemeral server port.
  std::string out =
      "backend=" + std::string(o.backend->AsRemote() != nullptr
                                   ? "remote"
                                   : o.backend->name());
  if (o.latency.has_value()) {
    const LatencyConfig& l = *o.latency;
    out += " latency=" + Num(l.mean_ms) + "," + Num(l.jitter_ms) + "," +
           Num(l.failure_rate) + "," + Num(l.retry_backoff_ms) + "," +
           std::to_string(l.max_retries) + "," + std::to_string(l.seed) +
           "," + Num(l.sleep_scale);
  }
  if (o.shards != 0) {
    out += " shards=" + std::to_string(o.shards) + "/" +
           std::string(ShardPartitionKey(o.partition));
  }
  if (!o.snapshot_verify) out += " verify=off";
  if (o.backend->AsRemote() != nullptr) {
    out += " remote=" + std::to_string(o.remote.connections) + "," +
           Num(o.remote.deadline_ms) + "," +
           std::to_string(o.remote.max_retries) + "," +
           Num(o.remote.retry_backoff_ms);
  }
  if (o.executor != nullptr) {
    const AsyncOptions& a = o.executor->options();
    out += " window=" + std::to_string(a.window);
  }
  if (o.query_cache != nullptr) out += " cache";
  return out;
}

class SpecKeyTableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(testing::MakeTestBA(120, 3));
    snapshot_ = new std::string(TempPath("graph.snap"));
    WNW_CHECK(WriteGraphSnapshot(*graph_, *snapshot_).ok());
    other_snapshot_ = new std::string(TempPath("other.snap"));
    WNW_CHECK(
        WriteGraphSnapshot(testing::MakeTestBA(60, 3, 11), *other_snapshot_)
            .ok());
    net::ServerOptions server_options;
    server_options.threads = 1;
    server_ = net::WnwServer::Start(
                  std::make_shared<InMemoryBackend>(graph_), server_options)
                  .value()
                  .release();
    addr_ = new std::string("127.0.0.1:" + std::to_string(server_->port()));
  }

  static void TearDownTestSuite() {
    delete server_;
    std::remove(snapshot_->c_str());
    std::remove(other_snapshot_->c_str());
    delete addr_;
    delete other_snapshot_;
    delete snapshot_;
    delete graph_;
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "wnw_spec_keys_test_" + name;
  }

  static std::string Spec(const std::string& keys) {
    return "walk:srw?steps=1" + (keys.empty() ? "" : "&" + keys);
  }

  // Resolves each row through the single session resolution path.
  static void ExpectSessionRows(const std::vector<Row>& rows) {
    for (const Row& row : rows) {
      const std::string spec = Spec(row.keys);
      auto config = SamplerConfig::Parse(spec);
      ASSERT_TRUE(config.ok()) << spec;
      SessionOptions options;
      if (row.preset) row.preset(&options);
      const Status status =
          ResolveSessionResources(graph_, &*config, &options);
      std::string got(StatusCodeName(status.code()));
      if (status.ok()) {
        got = Describe(options);
        // Every reserved key was consumed; only the sampler's own is left.
        EXPECT_EQ(config->ToSpec(), "walk:srw?steps=1") << spec;
      }
      EXPECT_EQ(got, row.want) << spec << "\n  " << status.ToString();
    }
  }

  // An explicit unsharded in-memory backend, for the explicit-resource rows.
  static const Preset kExplicitBackend;

  static Graph* graph_;
  static std::string* snapshot_;
  static std::string* other_snapshot_;
  static std::string* addr_;
  static net::WnwServer* server_;
};

const Preset SpecKeyTableTest::kExplicitBackend = [](SessionOptions* o) {
  o->backend = std::make_shared<InMemoryBackend>(graph_);
};
Graph* SpecKeyTableTest::graph_ = nullptr;
std::string* SpecKeyTableTest::snapshot_ = nullptr;
std::string* SpecKeyTableTest::other_snapshot_ = nullptr;
std::string* SpecKeyTableTest::addr_ = nullptr;
net::WnwServer* SpecKeyTableTest::server_ = nullptr;

const char* kDefaultLatency =
    "backend=latency(memory) latency=50,0,0,200,64,65261,0";

TEST_F(SpecKeyTableTest, BackendAndLatencyKeys) {
  const Preset latency_10ms = [](SessionOptions* o) {
    o->latency = LatencyConfig{.mean_ms = 10.0};
  };
  ExpectSessionRows({
      {"", "backend=memory"},
      {"backend=memory", "backend=memory"},
      {"backend=latency", kDefaultLatency},
      {"backend=carrier-pigeon", kInvalid},
      {"backend=memory", "backend=memory", latency_10ms},
      {"", "backend=latency(memory) latency=10,0,0,200,64,65261,0",
       latency_10ms},
      // A spec-selected latency stack starts from the defaults, not from
      // SessionOptions::latency.
      {"backend=latency", kDefaultLatency, latency_10ms},
      {"backend=latency", kInvalid, kExplicitBackend},
      {"backend=memory", kInvalid, kExplicitBackend},
      {"backend=latency&mean_ms=5", kInvalid, kExplicitBackend},
      // mean_ms: double >= 0, requires backend=latency.
      {"backend=latency&mean_ms=0",
       "backend=latency(memory) latency=0,0,0,200,64,65261,0"},
      {"backend=latency&mean_ms=12.5",
       "backend=latency(memory) latency=12.5,0,0,200,64,65261,0"},
      {"backend=latency&mean_ms=-5", kInvalid},
      {"backend=latency&mean_ms=fast", kInvalid},
      {"mean_ms=50", kInvalid},
      {"backend=memory&mean_ms=50", kInvalid},
      // jitter_ms: double >= 0.
      {"backend=latency&mean_ms=20&jitter_ms=0",
       "backend=latency(memory) latency=20,0,0,200,64,65261,0"},
      {"backend=latency&jitter_ms=7",
       "backend=latency(memory) latency=50,7,0,200,64,65261,0"},
      {"backend=latency&jitter_ms=-1", kInvalid},
      {"jitter_ms=1", kInvalid},
      // fail_rate: double in [0, 1).
      {"backend=latency&fail_rate=0", kDefaultLatency},
      {"backend=latency&fail_rate=0.999",
       "backend=latency(memory) latency=50,0,0.999,200,64,65261,0"},
      {"backend=latency&fail_rate=1", kInvalid},
      {"backend=latency&fail_rate=-0.1", kInvalid},
      {"fail_rate=0.1", kInvalid},
      // retry_ms: double >= 0.
      {"backend=latency&retry_ms=0",
       "backend=latency(memory) latency=50,0,0,0,64,65261,0"},
      {"backend=latency&retry_ms=-1", kInvalid},
      {"retry_ms=1", kInvalid},
      // retries: uint, clamped to the int range.
      {"backend=latency&retries=0",
       "backend=latency(memory) latency=50,0,0,200,0,65261,0"},
      {"backend=latency&retries=99999999999",
       "backend=latency(memory) latency=50,0,0,200,2147483647,65261,0"},
      {"backend=latency&retries=-1", kInvalid},
      {"backend=latency&retries=x", kInvalid},
      {"retries=3", kInvalid},
      // net_seed: any uint64.
      {"backend=latency&net_seed=0",
       "backend=latency(memory) latency=50,0,0,200,64,0,0"},
      {"backend=latency&net_seed=18446744073709551615",
       "backend=latency(memory) "
       "latency=50,0,0,200,64,18446744073709551615,0"},
      {"backend=latency&net_seed=18446744073709551616", kInvalid},
      {"net_seed=1", kInvalid},
      // sleep_scale: double >= 0.
      {"backend=latency&sleep_scale=0", kDefaultLatency},
      {"backend=latency&mean_ms=1&sleep_scale=0.5",
       "backend=latency(memory) latency=1,0,0,200,64,65261,0.5"},
      {"backend=latency&sleep_scale=-1", kInvalid},
      {"sleep_scale=1", kInvalid},
  });
}

TEST_F(SpecKeyTableTest, RemoteKeys) {
  const std::string remote = "backend=remote&addr=" + *addr_;
  const std::string addr = *addr_;
  const Preset preset_addr = [addr](SessionOptions* o) {
    o->remote_addr = addr;
  };
  const char* kDefaultRemote = "backend=remote remote=2,5000,2,50";
  ExpectSessionRows({
      {remote, kDefaultRemote},
      {"backend=remote", kInvalid},  // requires addr
      {"backend=remote", kDefaultRemote, preset_addr},
      {"", kDefaultRemote, preset_addr},
      {remote, kDefaultRemote, preset_addr},  // same address: no conflict
      {"backend=remote&addr=127.0.0.1:1", kInvalid, preset_addr},
      {"addr=" + addr, kInvalid},  // requires backend=remote
      {"backend=memory&addr=" + addr, kInvalid},
      {"backend=latency&addr=" + addr, kInvalid},
      {"backend=memory", kInvalid, preset_addr},
      {"backend=latency", kInvalid, preset_addr},
      {remote + "&mean_ms=10", kInvalid},
      {remote + "&snapshot=" + *snapshot_, kInvalid},
      {remote + "&shards=2", kInvalid},
      {remote + "&shards=2&partition=hash", kInvalid},
      {"shards=2", kInvalid, preset_addr},
      {"snapshot=" + *snapshot_, kInvalid, preset_addr},
      {"", kInvalid,
       [addr](SessionOptions* o) {
         o->remote_addr = addr;
         o->shards = 2;
       }},
      {"", kInvalid,
       [addr](SessionOptions* o) {
         o->remote_addr = addr;
         o->snapshot = "/tmp/x.snap";
       }},
      {remote, kInvalid, kExplicitBackend},
      {"", kInvalid,
       [addr](SessionOptions* o) {
         o->remote_addr = addr;
         o->backend = std::make_shared<InMemoryBackend>(graph_);
       }},
      // deadline_ms: double > 0, requires backend=remote.
      {remote + "&deadline_ms=100", "backend=remote remote=2,100,2,50"},
      {remote + "&deadline_ms=0", kInvalid},
      {remote + "&deadline_ms=-1", kInvalid},
      {"deadline_ms=100", kInvalid},
      // connections: uint in [1, 64].
      {remote + "&connections=1", "backend=remote remote=1,5000,2,50"},
      {remote + "&connections=64", "backend=remote remote=64,5000,2,50"},
      {remote + "&connections=0", kInvalid},
      {remote + "&connections=65", kInvalid},
      {"connections=1", kInvalid},
      // rpc_retries: uint in [0, 100].
      {remote + "&rpc_retries=0", "backend=remote remote=2,5000,0,50"},
      {remote + "&rpc_retries=100", "backend=remote remote=2,5000,100,50"},
      {remote + "&rpc_retries=101", kInvalid},
      {"rpc_retries=1", kInvalid},
      // rpc_backoff_ms: double >= 0.
      {remote + "&rpc_backoff_ms=0", "backend=remote remote=2,5000,2,0"},
      {remote + "&rpc_backoff_ms=-1", kInvalid},
      {"rpc_backoff_ms=5", kInvalid},
      // Explicit SessionOptions::remote tuning survives unless overridden.
      {remote + "&connections=3", "backend=remote remote=3,250,2,50",
       [](SessionOptions* o) { o->remote.deadline_ms = 250; }},
  });
}

TEST_F(SpecKeyTableTest, ShardKeys) {
  const Preset explicit_sharded = [](SessionOptions* o) {
    o->backend = BuildBackendStack(graph_, {.shards = 4});
  };
  const Preset preset_shards = [](SessionOptions* o) { o->shards = 4; };
  ExpectSessionRows({
      // shards: uint in [1, 256].
      {"shards=1", "backend=sharded[hash:1](memory) shards=1/hash"},
      {"shards=256", "backend=sharded[hash:256](memory) shards=256/hash"},
      {"shards=0", kInvalid},
      {"shards=257", kInvalid},
      {"shards=two", kInvalid},
      // partition: hash | range | degree, requires shards.
      {"shards=2&partition=hash",
       "backend=sharded[hash:2](memory) shards=2/hash"},
      {"shards=2&partition=range",
       "backend=sharded[range:2](memory) shards=2/range"},
      {"shards=2&partition=degree",
       "backend=sharded[degree:2](memory) shards=2/degree"},
      {"shards=2&partition=banana", kInvalid},
      {"partition=degree", kInvalid},
      {"partition=range", "backend=sharded[range:4](memory) shards=4/range",
       preset_shards},
      {"shards=2", "backend=sharded[hash:2](memory) shards=2/hash",
       preset_shards},
      // Against an explicit backend the spec may only describe it.
      {"shards=2", kInvalid, kExplicitBackend},
      {"partition=hash", kInvalid, kExplicitBackend},
      {"shards=8", kInvalid, explicit_sharded},
      {"shards=4&partition=range", kInvalid, explicit_sharded},
      {"shards=4", "backend=sharded[hash:4](memory) shards=4/hash",
       explicit_sharded},
      {"shards=4&partition=hash",
       "backend=sharded[hash:4](memory) shards=4/hash", explicit_sharded},
  });
}

TEST_F(SpecKeyTableTest, StorageKeys) {
  const std::string snap = "snapshot=" + *snapshot_;
  const std::string cache = TempPath("table.wnwcache");
  std::remove(cache.c_str());
  const std::string snapshot = *snapshot_;
  const Preset preset_snapshot = [snapshot](SessionOptions* o) {
    o->snapshot = snapshot;
  };
  ExpectSessionRows({
      // snapshot: path, composes with latency and shards.
      {snap, "backend=snapshot"},
      {"snapshot=/no/such/file.snap", "NotFound"},
      {"snapshot=" + *other_snapshot_, kInvalid},  // a different graph
      {"backend=memory&" + snap, kInvalid},
      {"backend=latency&mean_ms=5&" + snap,
       "backend=latency(snapshot) latency=5,0,0,200,64,65261,0"},
      {"shards=3&partition=degree&" + snap,
       "backend=sharded[degree:3](snapshot) shards=3/degree"},
      {snap, kInvalid, kExplicitBackend},
      {snap, "backend=snapshot", preset_snapshot},
      {"snapshot=/tmp/b.snap", kInvalid,
       [](SessionOptions* o) { o->snapshot = "/tmp/a.snap"; }},
      // snapshot_verify: on | off and bool aliases, requires snapshot.
      {snap + "&snapshot_verify=off", "backend=snapshot verify=off"},
      {snap + "&snapshot_verify=false", "backend=snapshot verify=off"},
      {snap + "&snapshot_verify=0", "backend=snapshot verify=off"},
      {snap + "&snapshot_verify=on", "backend=snapshot"},
      {snap + "&snapshot_verify=true", "backend=snapshot"},
      {snap + "&snapshot_verify=1", "backend=snapshot"},
      {snap + "&snapshot_verify=maybe", kInvalid},
      {"snapshot_verify=on", kInvalid},
      {"snapshot_verify=off", "backend=snapshot verify=off", preset_snapshot},
      // cache_file: path, conflicts with an explicit query cache.
      {"cache_file=" + cache, "backend=memory cache"},
      {"cache_file=" + cache, "backend=memory cache",
       [cache](SessionOptions* o) { o->cache_file = cache; }},
      {"cache_file=/tmp/b.wnwcache", kInvalid,
       [](SessionOptions* o) { o->cache_file = "/tmp/a.wnwcache"; }},
      {"cache_file=" + cache, kInvalid,
       [](SessionOptions* o) {
         o->query_cache = std::make_shared<QueryCache>();
       }},
  });
  std::remove(cache.c_str());
}

TEST_F(SpecKeyTableTest, ExecutorKeys) {
  const Preset explicit_executor = [](SessionOptions* o) {
    o->executor = std::make_shared<CompletionExecutor>(AsyncOptions{});
  };
  ExpectSessionRows({
      // window: uint in [1, 1024].
      {"window=1", "backend=memory window=1"},
      {"window=1024", "backend=memory window=1024"},
      {"window=0", kInvalid},
      {"window=1025", kInvalid},
      {"window=9999", kInvalid},
      {"window=two", kInvalid},
      // A spec window replaces SessionOptions::async; it conflicts with an
      // explicit shared executor.
      {"window=2", "backend=memory window=2",
       [](SessionOptions* o) { o->async = AsyncOptions{.window = 6}; }},
      {"window=4", kInvalid, explicit_executor},
      {"", kInvalid,
       [](SessionOptions* o) {
         o->async = AsyncOptions{};
         o->executor = std::make_shared<CompletionExecutor>(AsyncOptions{});
       }},
      {"shards=2&window=8",
       "backend=sharded[hash:2](memory) shards=2/hash window=8"},
  });
}

TEST_F(SpecKeyTableTest, RetiredExecutorKeysAreRejected) {
  // threads= and dispatch= are not reserved keys: the session leaves them
  // to the sampler, which rejects them like any unknown key.
  for (const char* keys :
       {"window=4&threads=0", "window=4&threads=4", "threads=4",
        "window=4&dispatch=completion", "window=4&dispatch=threads",
        "dispatch=threads"}) {
    const std::string spec = Spec(keys);
    EXPECT_EQ(SamplingSession::Open(graph_, spec).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
    WalkerPoolOptions pool;
    pool.walkers = 2;
    EXPECT_EQ(RunWalkerPool(graph_, spec, pool).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
    EngineOptions engine;
    engine.threads = 1;
    EXPECT_EQ(RunWalkEngine(graph_, spec + "&engine=block", engine)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
}

TEST_F(SpecKeyTableTest, EngineKeysAreRejectedOutsideTheEngine) {
  for (const char* keys : {"engine=block", "walkers=100", "block=64",
                           "residency_mb=1", "prefetch=2"}) {
    ExpectSessionRows({{keys, kInvalid}});
    const std::string spec = Spec(keys);
    EXPECT_EQ(SamplingSession::Open(graph_, spec).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
    WalkerPoolOptions pool;
    pool.walkers = 2;
    EXPECT_EQ(RunWalkerPool(graph_, spec, pool).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
}

TEST_F(SpecKeyTableTest, EngineKeys) {
  const std::string snap = "snapshot=" + *snapshot_;
  // 120 nodes; the derived block size is max(256, n / 64) = one block.
  const std::vector<Row> rows = {
      {"", "walkers=64 blocks=1 budget=0 window=0"},
      {"engine=block", "walkers=64 blocks=1 budget=0 window=0"},
      {"engine=turbo", kInvalid},
      // walkers: uint in [1, 2^30]; 2^30 passes the key check and then
      // trips the sample-buffer cap, which is a different code.
      {"walkers=1", "walkers=1 blocks=1 budget=0 window=0"},
      {"engine=block&walkers=5", "walkers=5 blocks=1 budget=0 window=0"},
      {"walkers=0", kInvalid},
      {"walkers=1073741824", "ResourceExhausted"},
      {"walkers=1073741825", kInvalid},
      {"walkers=many", kInvalid},
      // block: uint in [1, 2^32 - 1].
      {"block=1", "walkers=64 blocks=120 budget=0 window=0"},
      {"block=32", "walkers=64 blocks=4 budget=0 window=0"},
      {"block=4294967295", "walkers=64 blocks=1 budget=0 window=0"},
      {"block=0", kInvalid},
      {"block=4294967296", kInvalid},
      // residency_mb: uint MiB in [0, 2^30]; only a mapped snapshot graph
      // carries a budget.
      {"residency_mb=0", "walkers=64 blocks=1 budget=0 window=0"},
      {snap + "&residency_mb=1",
       "walkers=64 blocks=1 budget=1048576 window=0"},
      {snap + "&residency_mb=1073741824",
       "walkers=64 blocks=1 budget=1125899906842624 window=0"},
      {"residency_mb=1073741825", kInvalid},
      // prefetch: uint in [0, 64].
      {snap + "&residency_mb=1&prefetch=0",
       "walkers=64 blocks=1 budget=1048576 window=0"},
      {snap + "&residency_mb=1&prefetch=64",
       "walkers=64 blocks=1 budget=1048576 window=0"},
      {"prefetch=65", kInvalid},
      // Session keys ride along and resolve exactly as in a session.
      {"engine=block&window=4", "walkers=64 blocks=1 budget=0 window=4"},
      {"engine=block&window=0", kInvalid},
      {"engine=block&mean_ms=5", kInvalid},
      {"engine=block&nosuch=1", kInvalid},
  };
  for (const Row& row : rows) {
    const std::string spec = Spec(row.keys);
    EngineOptions options;
    options.samples_per_walker = 4;
    options.threads = 1;
    const auto run = RunWalkEngine(graph_, spec, options);
    std::string got(StatusCodeName(run.status().code()));
    if (run.ok()) {
      const SessionStats& s = run->stats;
      got = "walkers=" + std::to_string(s.engine_walkers) +
            " blocks=" + std::to_string(s.engine_blocks) +
            " budget=" + std::to_string(s.engine_residency_budget) +
            " window=" + std::to_string(s.async_window);
      EXPECT_EQ(s.spec, SamplerConfig::Parse(spec)->ToSpec());
    }
    EXPECT_EQ(got, row.want) << spec << "\n  " << run.status().ToString();
  }
}

TEST(SpecKeySchemaTest, RuleTokensNameSchemaKeysAndRowsWriteSomewhere) {
  std::vector<std::string_view> keys;
  for (const SpecKey& row : ReservedSessionKeys()) {
    keys.push_back(row.field.key);
  }
  for (const SpecKey& row : ReservedSessionKeys()) {
    // Exactly one way to land the value: an apply function or a string
    // field (string rows only).
    EXPECT_NE(row.apply == nullptr, row.path == nullptr) << row.field.key;
    EXPECT_EQ(row.path != nullptr, row.field.type == SpecType::kString)
        << row.field.key;
    for (std::string_view rules : {row.needs, row.conflicts}) {
      for (std::string_view token : SplitString(rules, " ")) {
        token = token.substr(token.find(':') + 1);  // own-value prefix
        token = token.substr(0, token.find('='));
        EXPECT_NE(std::find(keys.begin(), keys.end(), token), keys.end())
            << row.field.key << " names unknown key '" << token << "'";
      }
    }
  }
}

// Non-finite doubles are rejected as input instead of reaching a
// constructor CHECK (NaN slips past every `x < lo` comparison).
TEST_F(SpecKeyTableTest, NonFiniteDoublesAreRejected) {
  const std::string remote = "backend=remote&addr=" + *addr_ + "&";
  ExpectSessionRows({
      {"backend=latency&mean_ms=nan", kInvalid},
      {"backend=latency&mean_ms=inf", kInvalid},
      {"backend=latency&jitter_ms=inf", kInvalid},
      {"backend=latency&mean_ms=0&fail_rate=nan", kInvalid},
      {"backend=latency&retry_ms=nan", kInvalid},
      {"backend=latency&sleep_scale=inf", kInvalid},
      {remote + "deadline_ms=nan", kInvalid},
      {remote + "deadline_ms=inf", kInvalid},
      {remote + "rpc_backoff_ms=nan", kInvalid},
  });
}

}  // namespace
}  // namespace wnw
