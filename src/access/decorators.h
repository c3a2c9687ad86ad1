// Decorator backends: cross-cutting behaviors of the simulated OSN service
// layered over any origin backend.
//
//   LatencyBackend   — simulated network round trips with jitter and
//                      injected request failures (each failed attempt costs a
//                      retry backoff). With sleep_scale > 0 each request
//                      genuinely waits its simulated duration (retry
//                      backoffs included): its completion fires from a
//                      DeadlineTimer thread, so a whole batch or executor
//                      window of sleeping requests overlaps on that one
//                      thread, and a synchronous fetch waits for it there.
//   RateLimitBackend — the paper §1 query budget (e.g. Twitter's 15 requests
//                      per 15 minutes) as a decorator around the token-bucket
//                      SimulatedRateLimiter. Rate-limit waits are server-
//                      enforced and do NOT parallelize across a batch: they
//                      are billed as serial time.
//
// Both decorators are thread-safe and implement one fetch path,
// FetchNeighborsCompletion around their inner backend's completion; their
// FetchNeighbors is the one-line wait AwaitCompletion(u), and their batches
// are the base FetchBatch, billed by BatchLatch's fold (access/backend.h).
// They attribute their simulated waiting to the individual FetchReply, so
// each concurrent session sees exactly the time its own requests would
// have cost.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "access/backend.h"
#include "access/deadline_timer.h"
#include "graph/sharded_graph.h"

namespace wnw {

struct LatencyConfig {
  /// Mean simulated round-trip time per request.
  double mean_ms = 50.0;

  /// Uniform jitter: each round trip draws from mean ± jitter.
  double jitter_ms = 0.0;

  /// Probability that a request attempt fails and must be retried.
  double failure_rate = 0.0;

  /// Simulated backoff before retrying a failed attempt.
  double retry_backoff_ms = 200.0;

  /// Attempts beyond the first before the request errors out
  /// (ResourceExhausted) — the simulated crawler giving up. A request
  /// aborts with probability failure_rate^(max_retries+1); the default
  /// budget makes that effectively unreachable for any sane failure_rate
  /// (0.5^65 ≈ 3e-20), so long experiments never die mid-run.
  int max_retries = 64;

  /// Seeds the latency/failure randomness (independent of the walk RNG).
  uint64_t seed = 0xfeedu;

  /// Real-sleep factor: when > 0, each request genuinely waits
  /// simulated_seconds * sleep_scale before it completes (its completion
  /// fires from the deadline timer; a synchronous caller waits for it), so
  /// wall clock tracks the simulated service. 1 sleeps the full simulated time;
  /// 0.1 shrinks a 50ms RTT to a 5ms sleep (same accounting, faster
  /// experiments). 0 = accounting only.
  double sleep_scale = 0.0;
};

class LatencyBackend final : public AccessBackend {
 public:
  /// `timer` fires sleeping completions; null gives the backend a timer of
  /// its own (ShardedBackend passes one timer to all its shards). Its thread
  /// starts only on the first sleeping fetch.
  LatencyBackend(std::shared_ptr<AccessBackend> inner, LatencyConfig config,
                 std::shared_ptr<DeadlineTimer> timer = nullptr);

  std::string_view name() const override { return name_; }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const AccessOptions& options() const override { return inner_->options(); }
  const ShardedBackend* AsSharded() const override {
    return inner_->AsSharded();
  }
  const RemoteBackend* AsRemote() const override {
    return inner_->AsRemote();
  }
  Result<FetchReply> FetchNeighbors(NodeId u) override {
    return AwaitCompletion(u);
  }

  /// Serves the inner fetch and draws the request's schedule, then
  /// completes inline (sleep_scale == 0) or from the deadline timer once
  /// the scaled schedule has elapsed — no thread waits on the request. A
  /// timer that cannot start its thread fails the request with
  /// ResourceExhausted.
  void FetchNeighborsCompletion(NodeId u, CompletionCallback done) override;
  void ResetSimulation() override;

  const LatencyConfig& config() const { return config_; }

 private:
  /// One request's simulated duration: per-attempt round trips plus retry
  /// backoffs, and ResourceExhausted once max_retries is spent (an aborted
  /// request still occupied the wire for its attempts).
  struct Schedule {
    double seconds = 0.0;
    Status status;
  };

  /// Draws one request's schedule under the RNG lock.
  Schedule DrawSchedule();

  std::shared_ptr<AccessBackend> inner_;
  LatencyConfig config_;
  std::string name_;
  std::shared_ptr<DeadlineTimer> timer_;
  std::mutex mu_;
  Rng rng_;  // guarded by mu_
};

class RateLimitBackend final : public AccessBackend {
 public:
  RateLimitBackend(std::shared_ptr<AccessBackend> inner,
                   RateLimitConfig config);

  std::string_view name() const override { return name_; }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const AccessOptions& options() const override { return inner_->options(); }
  const ShardedBackend* AsSharded() const override {
    return inner_->AsSharded();
  }
  const RemoteBackend* AsRemote() const override {
    return inner_->AsRemote();
  }
  Result<FetchReply> FetchNeighbors(NodeId u) override {
    return AwaitCompletion(u);
  }

  /// Forwards the completion; the stall is added when the reply arrives.
  void FetchNeighborsCompletion(NodeId u, CompletionCallback done) override;
  void ResetSimulation() override;

  /// Total simulated seconds all sessions together spent rate-limited.
  double total_waited_seconds() const;

 private:
  // Consumes one token and returns the simulated wait incurred.
  double Consume();

  std::shared_ptr<AccessBackend> inner_;
  std::string name_;
  mutable std::mutex mu_;
  SimulatedRateLimiter limiter_;  // guarded by mu_
};

/// Declarative backend-stack recipe: origin scenario plus optional
/// decorators. BuildBackendStack wires memory -> latency -> rate limit
/// (outermost), matching a crawler that throttles itself before the network.
/// With shards >= 1 the whole stack moves inside a ShardedBackend instead:
/// N vertex-partitioned origins, each with its own lock, restriction
/// randomness, latency decorator, and rate limiter (one endpoint per
/// shard) — see access/sharded_backend.h.
struct BackendStackOptions {
  AccessOptions access;
  std::optional<LatencyConfig> latency;

  /// >= 1 builds a vertex-sharded origin with this many shards; 0 keeps the
  /// unsharded InMemoryBackend. Must be within [1, ShardedGraph::kMaxShards]
  /// when set (callers validate user input; this is CHECKed).
  int shards = 0;
  ShardPartition partition = ShardPartition::kModulo;

  /// Path to a graph snapshot file. When set, the origin topology is
  /// mmap'd from this file instead of pointing at an in-process Graph —
  /// build the stack with BuildSnapshotBackendStack
  /// (access/snapshot_backend.h), which can fail with a Status; the
  /// graph-pointer BuildBackendStack below CHECKs that this is empty.
  std::string snapshot;

  /// Trusted-open fast path: false skips the snapshot's whole-file checksum
  /// scan and the O(m) shard-vs-flat adjacency cross-check. Only the
  /// header/section bounds checks remain — for snapshots you just wrote or
  /// have verified before (?snapshot_verify=off).
  bool snapshot_verify = true;
};

std::shared_ptr<AccessBackend> BuildBackendStack(
    const Graph* graph, const BackendStackOptions& options);

/// Wraps one origin in the configured decorators: latency (seeded from
/// latency->seed, firing its sleeps on `timer`, or on a timer of its own
/// when null), then the rate limiter outermost when access.rate_limit is
/// set. Every flat stack and every shard of a ShardedBackend is built here.
std::shared_ptr<AccessBackend> DecorateOrigin(
    std::shared_ptr<AccessBackend> origin, const AccessOptions& access,
    const std::optional<LatencyConfig>& latency,
    std::shared_ptr<DeadlineTimer> timer = nullptr);

}  // namespace wnw
