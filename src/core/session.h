// SamplingSession: the one-stop facade over a sampling run. Owns the
// access view (CostMeter + caches over a pluggable AccessBackend), the
// transition design, and the registry-built sampler, and folds their
// scattered telemetry into one SessionStats — callers no longer reach into
// three objects for metrics or hand-wire constructors. Open a session from a
// spec string:
//
//   auto session = SamplingSession::Open(&graph, "we:mhrw?diameter=8");
//   if (!session.ok()) { ... }
//   auto node = (*session)->Draw();
//   SessionStats stats = (*session)->Stats();
//
// Backend and fetch-executor selection ride in the same spec string via
// reserved parameters (consumed before the sampler factory sees the config;
// the schema is ReservedSessionKeys() in core/spec_keys.h):
//
//   "we:mhrw?diameter=8&backend=latency&mean_ms=50&window=8"
//   "we:mhrw?diameter=8&shards=8&partition=degree&window=16"
//
// or programmatically through SessionOptions: an explicit shared backend
// stack, a LatencyConfig, a cross-session QueryCache so concurrent trials
// reuse each other's neighbor lists, and/or a shared CompletionExecutor so
// concurrent walkers overlap round trips inside one bounded in-flight
// window.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "access/access_interface.h"
#include "access/completion_executor.h"
#include "access/decorators.h"
#include "access/remote_backend.h"
#include "access/sharded_backend.h"
#include "core/registry.h"
#include "mcmc/transition.h"
#include "util/timer.h"

namespace wnw {

struct SessionOptions {
  /// Access-restriction / rate-limit scenario for the simulated OSN.
  AccessOptions access;

  /// Simulated network latency decorator (also reachable via the
  /// ?backend=latency spec parameters, which take precedence).
  std::optional<LatencyConfig> latency;

  /// Shards the simulated origin: >= 1 builds a ShardedBackend with this
  /// many vertex-partitioned origin servers, each with its own lock,
  /// restriction-randomness stream, rate limiter, and latency decorator
  /// (also reachable via the ?shards=&partition= spec parameters, which
  /// take precedence). 0 = the unsharded InMemoryBackend origin.
  int shards = 0;
  ShardPartition partition = ShardPartition::kModulo;

  /// Explicit backend stack shared across sessions — e.g. one prebuilt
  /// ShardedBackend serving every walker of a pool and every trial of a
  /// harness run. When set, `access`, `latency`, and `shards` are ignored —
  /// the backend already embodies the scenario (a spec that *conflicts*
  /// with it errors loudly instead).
  std::shared_ptr<AccessBackend> backend;

  /// Path to a graph snapshot file (tools/wnw_snapshot; also reachable via
  /// the ?snapshot= spec key): the origin serves the mmap'd file instead of
  /// the in-process graph — byte-identical responses, disk residency.
  /// Composes with `latency`/`shards`; conflicts loudly with an explicit
  /// `backend`. The snapshot must describe the same graph that was passed
  /// to Open (node counts are checked).
  std::string snapshot;

  /// Trusted-open fast path (also reachable via ?snapshot_verify=off):
  /// false skips the snapshot's whole-file checksum scan and the O(m)
  /// shard-vs-flat adjacency cross-check at open. Integrity is then only
  /// what the header/section bounds checks give you — use for snapshots you
  /// just wrote or have verified before.
  bool snapshot_verify = true;

  /// Remote origin: "host:port" of a wnw_serve daemon (also reachable via
  /// the ?backend=remote&addr=host:port spec keys). The session's backend
  /// becomes a RemoteBackend speaking the wire protocol — the restriction
  /// scenario, sharding, and rate limits all live server-side, so this
  /// conflicts loudly with `snapshot`, `shards`, an explicit `backend`, and
  /// `access`-scenario spec keys. The server must serve the same graph
  /// that was passed to Open (node counts are checked).
  std::string remote_addr;

  /// Client tuning for `remote_addr` (deadlines, pool size, retry budget).
  RemoteBackendOptions remote;

  /// Cross-session query cache: sessions sharing one cache reuse each
  /// other's neighbor lists (cache hits cost no queries and no waiting).
  std::shared_ptr<QueryCache> query_cache;

  /// Persistent-cache path (also reachable via the ?cache_file= spec key):
  /// builds a QueryCache bound to this file — loaded now when the file
  /// exists (warm start), saved back when the session closes (or on
  /// PersistCache()). Conflicts loudly with an explicit `query_cache`; to
  /// persist a cache you built yourself, call its AttachFile() instead.
  std::string cache_file;

  /// Builds a private CompletionExecutor for this session (also reachable
  /// via the ?window= spec parameter). Fetches then flow through
  /// a bounded in-flight window and PrefetchAsync overlaps compute with
  /// round trips.
  std::optional<AsyncOptions> async;

  /// Explicit executor shared across sessions (e.g. one crawler frontend
  /// serving N walkers). Mutually exclusive with `async` and with the spec
  /// window parameters — a shared executor's sizing is not negotiable per
  /// session.
  std::shared_ptr<CompletionExecutor> executor;

  /// Walk start node; unset picks one uniformly at random from the seed.
  std::optional<NodeId> start;

  /// Seeds the start-node choice and the sampler's randomness.
  uint64_t seed = 20260611;
};

/// Unified per-session telemetry. Generic fields are always filled;
/// sampler-family fields are zero when they do not apply.
struct SessionStats {
  std::string spec;     // canonical spec of the running config
  std::string sampler;  // Sampler::name() of the bound instance
  std::string backend;  // backend stack, e.g. "ratelimit(latency(memory))"

  // Access accounting (the paper's cost metrics).
  uint64_t query_cost = 0;      // distinct nodes fetched from the backend
  uint64_t total_queries = 0;   // all API invocations incl. cache hits
  uint64_t backend_fetches = 0;    // requests that reached the backend
  uint64_t shared_cache_hits = 0;  // served by the cross-session cache
  uint64_t prefetch_batches = 0;   // batched warm-ups issued
  double waited_seconds = 0.0;  // simulated latency + rate-limit waiting
  double elapsed_seconds = 0.0; // wall clock since Open()
  int async_window = 0;         // executor in-flight window (0 = sync)

  // Sharded-origin accounting (a single bucket when unsharded).
  int backend_shards = 1;                   // origin shards behind the stack
  std::vector<uint64_t> shard_fetches;      // this session's fetches by shard
  std::vector<double> shard_stall_seconds;  // rate-limit stalls by shard

  // Remote-origin telemetry (cumulative across every session sharing the
  // RemoteBackend; all zero/"" for in-process stacks). backend_shards
  // reports the *server-side* origin's shard count when remote.
  std::string remote_addr;     // "host:port" ("" = local backend)
  uint64_t remote_rpcs = 0;    // wire round trips issued
  uint64_t remote_retries = 0; // transient-failure retry attempts
  uint64_t remote_bytes = 0;   // wire bytes sent + received

  // Shared QueryCache telemetry (cumulative across every session sharing
  // the cache — the cross-session/cross-run history pool, not a per-session
  // meter; all zero when the session has no shared cache).
  bool cache_attached = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;   // nodes currently cached
  std::string cache_file;       // persistence path ("" = in-memory only)
  uint64_t cache_stale_drops = 0;  // persisted files rejected: wrong topology

  uint64_t samples_drawn = 0;  // successful Draw()s through this session

  // Burn-in telemetry (burnin / longrun).
  int last_burn_in = 0;
  double average_burn_in = 0.0;
  bool burned_in = false;

  // Acceptance-rejection telemetry (we / we-path).
  uint64_t candidates_tried = 0;
  uint64_t samples_accepted = 0;
  double acceptance_rate = 0.0;
  uint64_t forward_steps = 0;
  uint64_t backward_walks = 0;

  // Path-sampler amortization (we-path).
  uint64_t walks_run = 0;
  double samples_per_walk = 0.0;

  // Block-engine telemetry (RunWalkEngine aggregate stats only; all zero for
  // plain sessions and walker pools).
  uint64_t engine_walkers = 0;        // logical walkers multiplexed
  uint64_t engine_blocks = 0;         // scheduling blocks over the node range
  uint64_t engine_block_switches = 0; // times a worker changed blocks
  uint64_t engine_steps = 0;          // walker resumes: design steps in
                                      // flat mode, draws in session mode
  double engine_steps_per_sec = 0.0;  // engine_steps / stepping-phase time
  uint64_t engine_bytes_scanned = 0;  // CSR bytes read in-block (flat mode)
  uint64_t engine_resident_peak = 0;  // peak resident-set bytes sampled
                                      // (/proc/self/statm) during the run;
                                      // 0 where unavailable

  // Out-of-core residency telemetry (storage/residency.h; all zero unless
  // the run set a residency budget over an mmap'd snapshot graph).
  uint64_t engine_residency_budget = 0;      // configured budget bytes
  uint64_t engine_residency_peak_bytes = 0;  // high-water charged bytes
  uint64_t engine_residency_prefetches = 0;  // blocks queued for WILLNEED
  uint64_t engine_residency_releases = 0;    // blocks dropped or canceled
};

/// One SessionStats member by name: the table generic emitters walk
/// (wnw_sample --json writes one key per row). Names are part of the
/// interface; scripts and perfbench read them.
struct SessionStatsField {
  std::string_view name;
  std::variant<std::string SessionStats::*, uint64_t SessionStats::*,
               double SessionStats::*, int SessionStats::*,
               bool SessionStats::*, std::vector<uint64_t> SessionStats::*,
               std::vector<double> SessionStats::*>
      member;
};

/// Every SessionStats member, in the order wnw_sample --json emits them.
inline constexpr SessionStatsField kSessionStatsFields[] = {
    {"spec", &SessionStats::spec},
    {"sampler", &SessionStats::sampler},
    {"backend", &SessionStats::backend},
    {"samples_drawn", &SessionStats::samples_drawn},
    {"query_cost", &SessionStats::query_cost},
    {"total_queries", &SessionStats::total_queries},
    {"backend_fetches", &SessionStats::backend_fetches},
    {"shared_cache_hits", &SessionStats::shared_cache_hits},
    {"prefetch_batches", &SessionStats::prefetch_batches},
    {"waited_seconds", &SessionStats::waited_seconds},
    {"elapsed_seconds", &SessionStats::elapsed_seconds},
    {"async_window", &SessionStats::async_window},
    {"backend_shards", &SessionStats::backend_shards},
    {"shard_fetches", &SessionStats::shard_fetches},
    {"shard_stall_seconds", &SessionStats::shard_stall_seconds},
    {"remote_addr", &SessionStats::remote_addr},
    {"remote_rpcs", &SessionStats::remote_rpcs},
    {"remote_retries", &SessionStats::remote_retries},
    {"remote_bytes", &SessionStats::remote_bytes},
    {"cache_attached", &SessionStats::cache_attached},
    {"cache_hits", &SessionStats::cache_hits},
    {"cache_misses", &SessionStats::cache_misses},
    {"cache_evictions", &SessionStats::cache_evictions},
    {"cache_entries", &SessionStats::cache_entries},
    {"cache_file", &SessionStats::cache_file},
    {"cache_stale_drops", &SessionStats::cache_stale_drops},
    {"engine_walkers", &SessionStats::engine_walkers},
    {"engine_blocks", &SessionStats::engine_blocks},
    {"engine_block_switches", &SessionStats::engine_block_switches},
    {"engine_steps", &SessionStats::engine_steps},
    {"engine_steps_per_sec", &SessionStats::engine_steps_per_sec},
    {"engine_bytes_scanned", &SessionStats::engine_bytes_scanned},
    {"engine_resident_peak", &SessionStats::engine_resident_peak},
    {"engine_residency_budget", &SessionStats::engine_residency_budget},
    {"engine_residency_peak_bytes", &SessionStats::engine_residency_peak_bytes},
    {"engine_residency_prefetches", &SessionStats::engine_residency_prefetches},
    {"engine_residency_releases", &SessionStats::engine_residency_releases},
    {"last_burn_in", &SessionStats::last_burn_in},
    {"average_burn_in", &SessionStats::average_burn_in},
    {"burned_in", &SessionStats::burned_in},
    {"candidates_tried", &SessionStats::candidates_tried},
    {"samples_accepted", &SessionStats::samples_accepted},
    {"acceptance_rate", &SessionStats::acceptance_rate},
    {"forward_steps", &SessionStats::forward_steps},
    {"backward_walks", &SessionStats::backward_walks},
    {"walks_run", &SessionStats::walks_run},
    {"samples_per_walk", &SessionStats::samples_per_walk},
};

class SamplingSession {
 public:
  /// Opens a session from a spec string ("we:mhrw?diameter=10", ...) or a
  /// parsed config. The graph must outlive the session. Errors (malformed
  /// spec, unknown sampler or walk design, bad options, invalid start node)
  /// come back as Status — nothing crashes on user input.
  static Result<std::unique_ptr<SamplingSession>> Open(
      const Graph* graph, std::string_view spec, SessionOptions options = {});
  static Result<std::unique_ptr<SamplingSession>> Open(
      const Graph* graph, const SamplerConfig& config,
      SessionOptions options = {});

  /// Persists the shared query cache to its attached file (see
  /// QueryCache::AttachFile / SessionOptions::cache_file) and waits for any
  /// pending prefetches. The destructor does this too (best-effort, logged);
  /// call it directly when you need the Status.
  Status PersistCache();

  ~SamplingSession();

  /// Draws the next sample node.
  Result<NodeId> Draw();

  /// Appends up to `count` samples to *out; stops at the first draw error
  /// and returns it (already-appended samples are kept).
  Status DrawInto(std::vector<NodeId>* out, size_t count);

  /// Snapshot of the unified telemetry.
  SessionStats Stats() const;

  /// Which aggregate correction applies to this session's samples.
  TargetBias bias() const { return BiasForWalkSpec(config_.walk); }

  /// The stationary/target weight w(u) the sampler corrects to.
  double TargetWeight(NodeId u) { return sampler_->TargetWeight(u); }

  const SamplerConfig& config() const { return config_; }
  NodeId start() const { return start_; }

  // Escape hatches for code that needs the underlying pieces (restricted
  // neighbor views, design probabilities); prefer Stats() for metrics.
  AccessInterface& access() { return *access_; }
  const AccessInterface& access() const { return *access_; }
  Sampler& sampler() { return *sampler_; }
  const TransitionDesign& design() const { return *design_; }
  const std::shared_ptr<CompletionExecutor>& executor() const {
    return executor_;
  }

 private:
  SamplingSession(SamplerConfig config, NodeId start,
                  std::shared_ptr<CompletionExecutor> executor,
                  std::unique_ptr<AccessInterface> access,
                  std::unique_ptr<TransitionDesign> design,
                  std::unique_ptr<Sampler> sampler)
      : config_(std::move(config)),
        start_(start),
        executor_(std::move(executor)),
        access_(std::move(access)),
        design_(std::move(design)),
        sampler_(std::move(sampler)) {}

  SamplerConfig config_;  // includes any backend=... spec parameters
  NodeId start_;
  std::shared_ptr<CompletionExecutor> executor_;  // may be shared or null
  std::unique_ptr<AccessInterface> access_;
  std::unique_ptr<TransitionDesign> design_;
  std::unique_ptr<Sampler> sampler_;
  uint64_t samples_drawn_ = 0;
  Timer timer_;  // wall clock since Open()
};

/// Fills the backend half of *stats from the shared resources a run used:
/// backend name, the physical counters of `physical` (fetches, shared-cache
/// hits, prefetch batches, waited time, per-shard vectors sized to
/// backend_shards), the async window, and the shard, remote and query-cache
/// telemetry. Logical costs (query_cost, total_queries) are left to the
/// caller. Shared by SamplingSession::Stats and the block walk engine.
void FillBackendStats(const AccessBackend& backend, const QueryCache* cache,
                      const CompletionExecutor* executor,
                      const CostMeter& physical, SessionStats* stats);

/// Peels the session-reserved spec keys off *config, enforces spec-vs-options
/// conflicts, and materializes the shared resources into *options (fetch
/// executor, backend stack, persistent query cache). The single resolution
/// path behind SamplingSession::Open, RunWalkerPool, the block walk engine
/// (engine/walk_engine.h) and the experiment harness's shared trial stack
/// (RunErrorVsCost, experiments/harness.h); idempotent on its own output.
Status ResolveSessionResources(const Graph* graph, SamplerConfig* config,
                               SessionOptions* options);

// --- concurrent walker pools -------------------------------------------------

/// N independent walkers of one spec drawing concurrently against ONE shared
/// simulated service: one backend stack, one optional query cache, one fetch
/// executor whose in-flight window bounds the walkers' combined open
/// requests — independent walks overlap each other's round trips, which is
/// how elapsed wall clock is driven down toward a single walker's compute.
struct WalkerPoolOptions {
  int walkers = 4;
  uint64_t samples_per_walker = 10;

  /// Shared-resource template. backend/query_cache/executor (or `async`,
  /// from which one shared executor is built) are created once and shared;
  /// walker w seeds its session with Mix64(session.seed ^ w) so outputs are
  /// reproducible regardless of scheduling or window size.
  SessionOptions session;
};

struct WalkerPoolResult {
  std::vector<std::vector<NodeId>> samples;  // per walker, in walker order
  std::vector<SessionStats> stats;           // per walker
  double elapsed_seconds = 0.0;  // wall clock for the whole pool's draws
};

/// Runs the pool to completion. Any session-open or draw error aborts the
/// pool and comes back as that Status.
Result<WalkerPoolResult> RunWalkerPool(const Graph* graph,
                                       const SamplerConfig& config,
                                       const WalkerPoolOptions& options);
Result<WalkerPoolResult> RunWalkerPool(const Graph* graph,
                                       std::string_view spec,
                                       const WalkerPoolOptions& options);

}  // namespace wnw
