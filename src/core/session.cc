#include "core/session.h"

#include <algorithm>
#include <cstdint>

#include "access/snapshot_backend.h"
#include "core/path_sampler.h"
#include "core/samplers.h"
#include "core/spec_keys.h"
#include "core/walk_estimate.h"
#include "random/rng.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace wnw {

// Exposed (declared in session.h) because RunWalkEngine resolves the same
// shared resources through the same single path before fanning walkers out
// over blocks.
Status ResolveSessionResources(const Graph* graph, SamplerConfig* config,
                               SessionOptions* options) {
  const std::string spec = config->ToSpec();  // before the keys are peeled
  WNW_ASSIGN_OR_RETURN(const SpecKeySet selected,
                       ApplySessionKeys(config, options));
  if (!options->remote_addr.empty() &&
      (!options->snapshot.empty() || options->shards >= 1)) {
    // The remote server owns the origin: its snapshot, its shards, its
    // restriction scenario. Local origin options contradict it.
    return Status::InvalidArgument(
        "a remote origin ('" + options->remote_addr +
        "') contradicts snapshot / shards — the server owns the origin; "
        "pass --snapshot / --shards to wnw_serve instead");
  }
  if ((selected.Has(SpecFamily::kBackend) ||
       selected.Has(SpecFamily::kLatency) ||
       selected.Has(SpecFamily::kRemote)) &&
      options->backend != nullptr) {
    return Status::InvalidArgument(
        "spec '" + spec +
        "' selects a backend, but an explicit backend is already provided — "
        "drop one of the two");
  }
  if (selected.Has(SpecFamily::kShard) && options->backend != nullptr) {
    // A spec may *describe* the explicit sharded backend it runs against
    // (harness bookkeeping), but it must not contradict it — and it can
    // never shard a backend that was built unsharded. AsSharded() sees
    // through decorator wrappers.
    const ShardedBackend* sharded = options->backend->AsSharded();
    if (sharded == nullptr) {
      return Status::InvalidArgument(
          "spec '" + spec +
          "' requests a sharded origin (shards=" +
          std::to_string(options->shards) + "), but the explicit backend '" +
          std::string(options->backend->name()) +
          "' is not sharded — build it with BackendStackOptions::shards or "
          "drop the key");
    }
    if (selected.Has("shards") && sharded->num_shards() != options->shards) {
      return Status::InvalidArgument(
          "spec '" + spec + "' requests shards=" +
          std::to_string(options->shards) + " but the explicit backend '" +
          std::string(sharded->name()) + "' has " +
          std::to_string(sharded->num_shards()) + " shards");
    }
    if (selected.Has("partition") && sharded->partition() != options->partition) {
      return Status::InvalidArgument(
          "spec '" + spec + "' requests partition=" +
          std::string(ShardPartitionKey(options->partition)) +
          " but the explicit backend '" + std::string(sharded->name()) +
          "' was partitioned by " +
          std::string(ShardPartitionKey(sharded->partition())));
    }
  }
  if (!options->snapshot.empty() && options->backend != nullptr) {
    return Status::InvalidArgument(
        "spec or options select a snapshot origin ('" + options->snapshot +
        "'), but an explicit backend is already provided — drop one of the "
        "two");
  }
  if (!options->remote_addr.empty() && options->backend != nullptr) {
    return Status::InvalidArgument(
        "spec or options select a remote origin ('" + options->remote_addr +
        "'), but an explicit backend is already provided — drop one of the "
        "two");
  }
  if (!options->cache_file.empty() && options->query_cache != nullptr) {
    return Status::InvalidArgument(
        "cache_file ('" + options->cache_file +
        "') conflicts with an explicit query cache — attach the file to "
        "your cache with QueryCache::AttachFile instead");
  }
  if (selected.Has(SpecFamily::kExecutor) && options->executor != nullptr) {
    return Status::InvalidArgument(
        "spec '" + spec +
        "' sizes a fetch executor, but an explicit shared executor is "
        "already provided — drop one of the two");
  }
  if (options->async.has_value() && options->executor != nullptr) {
    return Status::InvalidArgument(
        "both async (build a private executor) and an explicit shared "
        "executor are set — drop one of the two");
  }
  if (options->executor == nullptr && options->async.has_value()) {
    options->executor = std::make_shared<CompletionExecutor>(*options->async);
  }
  options->async.reset();
  if (!options->cache_file.empty()) {
    // Materialize the persistent cache: bound to the file, warm when it
    // exists. The path is consumed so re-resolving (walker pools) is a
    // no-op; the cache itself remembers where to persist.
    // The topology handshake makes a persisted cache of a *different* graph
    // a loud cold start instead of silently served wrong neighbor lists.
    auto cache = std::make_shared<QueryCache>();
    WNW_RETURN_IF_ERROR(
        cache->AttachFile(options->cache_file, graph->TopologyChecksum()));
    options->query_cache = std::move(cache);
    options->cache_file.clear();
  }
  if (options->backend == nullptr && !options->remote_addr.empty()) {
    WNW_ASSIGN_OR_RETURN(
        std::shared_ptr<RemoteBackend> remote,
        RemoteBackend::Connect(options->remote_addr, options->remote));
    if (remote->num_nodes() != graph->num_nodes()) {
      return Status::InvalidArgument(
          "remote server '" + options->remote_addr + "' serves " +
          std::to_string(remote->num_nodes()) + " nodes but the graph has " +
          std::to_string(graph->num_nodes()) +
          " — is wnw_serve running a different snapshot?");
    }
    options->backend = std::move(remote);
    options->remote_addr.clear();  // consumed; re-resolving is a no-op
  }
  if (options->backend == nullptr) {
    const BackendStackOptions stack{.access = options->access,
                                    .latency = options->latency,
                                    .shards = options->shards,
                                    .partition = options->partition,
                                    .snapshot = options->snapshot,
                                    .snapshot_verify =
                                        options->snapshot_verify};
    if (!options->snapshot.empty()) {
      WNW_ASSIGN_OR_RETURN(options->backend,
                           BuildSnapshotBackendStack(stack));
      options->snapshot.clear();  // consumed; re-resolving is a no-op
      if (options->backend->num_nodes() != graph->num_nodes()) {
        return Status::InvalidArgument(
            "snapshot '" + stack.snapshot + "' serves " +
            std::to_string(options->backend->num_nodes()) +
            " nodes but the graph has " +
            std::to_string(graph->num_nodes()) +
            " — was it built from a different graph?");
      }
    } else {
      options->backend = BuildBackendStack(graph, stack);
    }
  } else if (options->backend->num_nodes() != graph->num_nodes()) {
    return Status::InvalidArgument(
        "explicit backend serves " +
        std::to_string(options->backend->num_nodes()) +
        " nodes but the graph has " + std::to_string(graph->num_nodes()));
  }
  return Status::OK();
}

void FillBackendStats(const AccessBackend& backend, const QueryCache* cache,
                      const CompletionExecutor* executor,
                      const CostMeter& physical, SessionStats* stats) {
  stats->backend = std::string(backend.name());
  stats->backend_fetches = physical.backend_fetches;
  stats->shared_cache_hits = physical.shared_cache_hits;
  stats->prefetch_batches = physical.prefetch_batches;
  stats->waited_seconds = physical.waited_seconds;
  stats->async_window = executor != nullptr ? executor->window() : 0;
  if (const ShardedBackend* sharded = backend.AsSharded()) {
    stats->backend_shards = sharded->num_shards();
  }
  if (const RemoteBackend* remote = backend.AsRemote()) {
    stats->remote_addr = remote->address();
    stats->remote_rpcs = remote->rpcs();
    stats->remote_retries = remote->retries();
    stats->remote_bytes = remote->wire_bytes();
    // The shard topology lives server-side; surface it the same way the
    // in-process sharded stack does.
    stats->backend_shards = std::max(1, remote->origin_shards());
  }
  if (cache != nullptr) {
    stats->cache_attached = true;
    stats->cache_hits = cache->hits();
    stats->cache_misses = cache->misses();
    stats->cache_evictions = cache->evictions();
    stats->cache_entries = cache->size();
    stats->cache_file = cache->attached_file();
    stats->cache_stale_drops = cache->stale_drops();
  }
  // Runs that never fetched have empty per-shard vectors; normalize so
  // consumers can always index [0, backend_shards).
  stats->shard_fetches = physical.shard_fetches;
  stats->shard_stall_seconds = physical.shard_stall_seconds;
  stats->shard_fetches.resize(static_cast<size_t>(stats->backend_shards), 0);
  stats->shard_stall_seconds.resize(
      static_cast<size_t>(stats->backend_shards), 0.0);
}

Result<std::unique_ptr<SamplingSession>> SamplingSession::Open(
    const Graph* graph, std::string_view spec, SessionOptions options) {
  WNW_ASSIGN_OR_RETURN(SamplerConfig config, SamplerConfig::Parse(spec));
  return Open(graph, config, options);
}

Result<std::unique_ptr<SamplingSession>> SamplingSession::Open(
    const Graph* graph, const SamplerConfig& config, SessionOptions options) {
  if (graph == nullptr || graph->num_nodes() == 0) {
    return Status::InvalidArgument("sampling session needs a non-empty graph");
  }
  // The sampler factory validates every remaining parameter, so the
  // session-reserved keys are peeled off a copy first; the original config
  // (reserved params included) stays on the session for spec round-trips.
  SamplerConfig sampler_config = config;
  WNW_RETURN_IF_ERROR(ResolveSessionResources(graph, &sampler_config,
                                              &options));

  WNW_ASSIGN_OR_RETURN(
      std::unique_ptr<TransitionDesign> design,
      ParseTransitionDesign(config.walk, graph, options.backend->options()));

  Rng rng(Mix64(options.seed));
  const uint64_t sampler_seed = rng.Next();
  NodeId start;
  if (options.start.has_value()) {
    start = *options.start;
    if (start >= graph->num_nodes()) {
      return Status::OutOfRange("start node " + std::to_string(start) +
                                " outside graph with " +
                                std::to_string(graph->num_nodes()) + " nodes");
    }
  } else {
    start = static_cast<NodeId>(rng.NextBounded(graph->num_nodes()));
  }

  // Note: under kRandomSubset (non-deterministic responses) a provided
  // query_cache is simply never consulted — AccessInterface bypasses
  // caching entirely rather than erroring, so one harness config can span
  // restriction scenarios.
  std::shared_ptr<CompletionExecutor> executor = options.executor;
  auto access = std::make_unique<AccessInterface>(
      options.backend, options.query_cache, executor);
  WNW_ASSIGN_OR_RETURN(
      std::unique_ptr<Sampler> sampler,
      SamplerRegistry::Global().Create(sampler_config, access.get(),
                                       design.get(), start, sampler_seed));
  return std::unique_ptr<SamplingSession>(
      new SamplingSession(config, start, std::move(executor),
                          std::move(access), std::move(design),
                          std::move(sampler)));
}

Status SamplingSession::PersistCache() {
  access_->Wait();  // pending prefetches may still add entries
  const std::shared_ptr<QueryCache>& cache = access_->query_cache();
  if (cache == nullptr) return Status::OK();
  return cache->Persist();
}

SamplingSession::~SamplingSession() {
  // Warm-start persistence: a cache bound to a file (cache_file= /
  // AttachFile) writes itself back when the session closes, so the next
  // run starts with this run's history. Destructors cannot return a
  // Status; callers needing the outcome call PersistCache() first (Persist
  // is idempotent — a clean cache is a no-op).
  const Status persisted = PersistCache();
  if (!persisted.ok()) {
    WNW_LOG(kWarning) << "query-cache persist failed: "
                      << persisted.ToString();
  }
}

Result<NodeId> SamplingSession::Draw() {
  auto drawn = sampler_->Draw();
  if (drawn.ok()) ++samples_drawn_;
  return drawn;
}

Status SamplingSession::DrawInto(std::vector<NodeId>* out, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    auto drawn = Draw();
    if (!drawn.ok()) return drawn.status();
    out->push_back(drawn.value());
  }
  return Status::OK();
}

SessionStats SamplingSession::Stats() const {
  SessionStats stats;
  stats.spec = config_.ToSpec();
  stats.sampler = std::string(sampler_->name());
  const CostMeter& meter = access_->meter();
  stats.query_cost = meter.unique_cost;
  stats.total_queries = meter.total_queries;
  stats.elapsed_seconds = timer_.ElapsedSeconds();
  stats.samples_drawn = samples_drawn_;
  FillBackendStats(access_->backend(), access_->query_cache().get(),
                   executor_.get(), meter, &stats);

  // Sampler-family telemetry. The built-ins are matched by type; samplers
  // registered externally contribute the generic fields above.
  if (const auto* burnin = dynamic_cast<const BurnInSampler*>(sampler_.get())) {
    stats.last_burn_in = burnin->last_burn_in();
    stats.average_burn_in = burnin->average_burn_in();
    stats.burned_in = stats.samples_drawn > 0;
  } else if (const auto* longrun =
                 dynamic_cast<const OneLongRunSampler*>(sampler_.get())) {
    stats.burned_in = longrun->burned_in();
  } else if (const auto* we =
                 dynamic_cast<const WalkEstimateSampler*>(sampler_.get())) {
    stats.candidates_tried = we->candidates_tried();
    stats.samples_accepted = we->samples_accepted();
    stats.acceptance_rate = we->acceptance_rate();
    stats.forward_steps = we->forward_steps();
    stats.backward_walks = we->estimator().total_backward_walks();
    stats.walks_run = we->candidates_tried();  // one candidate per walk
    stats.samples_per_walk = we->acceptance_rate();
  } else if (const auto* path =
                 dynamic_cast<const WalkEstimatePathSampler*>(sampler_.get())) {
    stats.walks_run = path->walks_run();
    stats.samples_accepted = path->samples_accepted();
    stats.samples_per_walk = path->samples_per_walk();
  }
  return stats;
}

// --- concurrent walker pools -------------------------------------------------

Result<WalkerPoolResult> RunWalkerPool(const Graph* graph,
                                       const SamplerConfig& config,
                                       const WalkerPoolOptions& options) {
  if (options.walkers < 1 || options.walkers > 64) {
    return Status::InvalidArgument("walker pool size must be in [1, 64]");
  }
  if (graph == nullptr || graph->num_nodes() == 0) {
    return Status::InvalidArgument("walker pool needs a non-empty graph");
  }
  // Resolve the shared resources ONCE — same single path Open uses — so
  // every walker shares one backend stack and one executor instead of
  // building private ones per session. Each walker's Open re-resolves the
  // already-materialized options, which is a no-op.
  SamplerConfig stripped = config;
  SessionOptions shared = options.session;
  WNW_RETURN_IF_ERROR(ResolveSessionResources(graph, &stripped, &shared));

  const size_t walkers = static_cast<size_t>(options.walkers);
  std::vector<std::unique_ptr<SamplingSession>> sessions;
  sessions.reserve(walkers);
  for (size_t w = 0; w < walkers; ++w) {
    SessionOptions session_opts = shared;
    session_opts.seed = Mix64(shared.seed ^ (0x3a1c0000u + w));
    WNW_ASSIGN_OR_RETURN(std::unique_ptr<SamplingSession> session,
                         SamplingSession::Open(graph, stripped, session_opts));
    sessions.push_back(std::move(session));
  }

  WalkerPoolResult result;
  result.samples.resize(walkers);
  std::vector<Status> statuses(walkers, Status::OK());
  Timer timer;
  ParallelFor(
      walkers,
      [&](size_t w) {
        result.samples[w].reserve(options.samples_per_walker);
        statuses[w] = sessions[w]->DrawInto(
            &result.samples[w], options.samples_per_walker);
      },
      options.walkers);
  result.elapsed_seconds = timer.ElapsedSeconds();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  result.stats.reserve(walkers);
  for (const auto& session : sessions) {
    result.stats.push_back(session->Stats());
    // The walkers run the reserved-key-stripped config; report the caller's
    // full spec (window=/backend= included) so pool telemetry round-trips
    // like a directly opened session's does.
    result.stats.back().spec = config.ToSpec();
  }
  return result;
}

Result<WalkerPoolResult> RunWalkerPool(const Graph* graph,
                                       std::string_view spec,
                                       const WalkerPoolOptions& options) {
  WNW_ASSIGN_OR_RETURN(SamplerConfig config, SamplerConfig::Parse(spec));
  return RunWalkerPool(graph, config, options);
}

}  // namespace wnw
