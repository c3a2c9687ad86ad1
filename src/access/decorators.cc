#include "access/decorators.h"

#include <algorithm>

#include "access/sharded_backend.h"
#include "util/check.h"

namespace wnw {

namespace {

std::string WrapName(std::string_view outer, std::string_view inner) {
  std::string name(outer);
  name += '(';
  name += inner;
  name += ')';
  return name;
}

}  // namespace

// --- LatencyBackend ----------------------------------------------------------

LatencyBackend::LatencyBackend(std::shared_ptr<AccessBackend> inner,
                               LatencyConfig config,
                               std::shared_ptr<DeadlineTimer> timer)
    : inner_(std::move(inner)),
      config_(config),
      name_(WrapName("latency", inner_->name())),
      timer_(timer != nullptr ? std::move(timer)
                              : std::make_shared<DeadlineTimer>()),
      rng_(Mix64(config.seed)) {
  WNW_CHECK(inner_ != nullptr);
  WNW_CHECK(config_.mean_ms >= 0.0 && config_.jitter_ms >= 0.0);
  WNW_CHECK(config_.failure_rate >= 0.0 && config_.failure_rate < 1.0);
  WNW_CHECK(config_.retry_backoff_ms >= 0.0 && config_.max_retries >= 0);
  WNW_CHECK(config_.sleep_scale >= 0.0);
}

LatencyBackend::Schedule LatencyBackend::DrawSchedule() {
  // The whole schedule (round trips + retry backoffs) is drawn under the
  // RNG lock; any real wait happens outside it, so concurrent requests
  // overlap their waits instead of serializing on the mutex.
  Schedule schedule;
  std::lock_guard<std::mutex> lock(mu_);
  for (int attempt = 0;; ++attempt) {
    double rtt_ms = config_.mean_ms;
    if (config_.jitter_ms > 0.0) {
      rtt_ms += rng_.NextDouble(-config_.jitter_ms, config_.jitter_ms);
    }
    schedule.seconds += std::max(0.0, rtt_ms) * 1e-3;
    if (config_.failure_rate <= 0.0 || !rng_.NextBool(config_.failure_rate)) {
      return schedule;
    }
    if (attempt >= config_.max_retries) {
      schedule.status = Status::ResourceExhausted(
          "simulated network request failed after " +
          std::to_string(config_.max_retries + 1) + " attempts");
      return schedule;
    }
    schedule.seconds += config_.retry_backoff_ms * 1e-3;
  }
}

void LatencyBackend::FetchNeighborsCompletion(NodeId u,
                                              CompletionCallback done) {
  // `this` is alive until `done` fires: whoever submitted holds the stack.
  inner_->FetchNeighborsCompletion(
      u, [this, done = std::move(done)](Result<FetchReply> reply) {
        double wait = 0.0;
        if (reply.ok()) {
          const Schedule schedule = DrawSchedule();
          wait = schedule.seconds * config_.sleep_scale;
          if (schedule.status.ok()) {
            reply->simulated_seconds += schedule.seconds;
          } else {
            reply = schedule.status;
          }
        }
        if (wait <= 0.0) return done(std::move(reply));
        // std::function needs a copyable closure; the reply is move-only.
        auto boxed = std::make_shared<Result<FetchReply>>(std::move(reply));
        Status armed =
            timer_->After(wait, [done, boxed] { done(std::move(*boxed)); });
        if (!armed.ok()) done(std::move(armed));
      });
}

void LatencyBackend::ResetSimulation() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    rng_ = Rng(Mix64(config_.seed));
  }
  inner_->ResetSimulation();
}

// --- RateLimitBackend --------------------------------------------------------

RateLimitBackend::RateLimitBackend(std::shared_ptr<AccessBackend> inner,
                                   RateLimitConfig config)
    : inner_(std::move(inner)),
      name_(WrapName("ratelimit", inner_->name())),
      limiter_(config) {
  WNW_CHECK(inner_ != nullptr);
}

double RateLimitBackend::Consume() {
  std::lock_guard<std::mutex> lock(mu_);
  const double before = limiter_.waited_seconds();
  limiter_.OnQuery();
  return limiter_.waited_seconds() - before;
}

void RateLimitBackend::FetchNeighborsCompletion(NodeId u,
                                                CompletionCallback done) {
  inner_->FetchNeighborsCompletion(
      u, [this, done = std::move(done)](Result<FetchReply> reply) {
        if (reply.ok()) {
          // Token stalls are server-enforced per query and do not
          // parallelize: marked serial, a batch's fold sums them.
          const double stall = Consume();
          reply->simulated_seconds += stall;
          reply->serial_seconds += stall;
        }
        done(std::move(reply));
      });
}

void RateLimitBackend::ResetSimulation() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    limiter_.Reset();
  }
  inner_->ResetSimulation();
}

double RateLimitBackend::total_waited_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limiter_.waited_seconds();
}

// --- stack builder -----------------------------------------------------------

std::shared_ptr<AccessBackend> DecorateOrigin(
    std::shared_ptr<AccessBackend> origin, const AccessOptions& access,
    const std::optional<LatencyConfig>& latency,
    std::shared_ptr<DeadlineTimer> timer) {
  if (latency.has_value()) {
    origin = std::make_shared<LatencyBackend>(std::move(origin), *latency,
                                              std::move(timer));
  }
  if (access.rate_limit.queries_per_window > 0) {
    origin = std::make_shared<RateLimitBackend>(std::move(origin),
                                                access.rate_limit);
  }
  return origin;
}

std::shared_ptr<AccessBackend> BuildBackendStack(
    const Graph* graph, const BackendStackOptions& options) {
  WNW_CHECK(options.snapshot.empty() &&
            "snapshot-backed stacks go through BuildSnapshotBackendStack");
  if (options.shards >= 1) {
    // The whole stack moves inside the sharded origin: per-shard latency
    // decorators and rate limiters (one endpoint per shard). User-facing
    // shard counts are range-validated at the spec/session layer, so a bad
    // count here is a programmer error.
    auto partitioned = ShardedGraph::FromGraph(*graph, options.shards,
                                               options.partition);
    WNW_CHECK(partitioned.ok());
    return std::make_shared<ShardedBackend>(
        std::make_shared<const ShardedGraph>(std::move(partitioned).value()),
        ShardedBackendOptions{.access = options.access,
                              .latency = options.latency});
  }
  return DecorateOrigin(
      std::make_shared<InMemoryBackend>(graph, options.access),
      options.access, options.latency);
}

}  // namespace wnw
