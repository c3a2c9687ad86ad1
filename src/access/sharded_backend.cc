#include "access/sharded_backend.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <future>

#include "access/decorators.h"
#include "util/check.h"
#include "util/string_util.h"

namespace wnw {

namespace {

/// One shard's origin server: the ShardedGraph vertices this shard owns,
/// restriction-simulated exactly like InMemoryBackend (same name, same
/// response bits for the same AccessOptions — the single-shard special
/// case). Only ShardedBackend routes to it, and only with owned nodes.
class ShardOriginBackend final : public AccessBackend {
 public:
  ShardOriginBackend(std::shared_ptr<const ShardedGraph> graph, int shard,
                     AccessOptions options, std::string name)
      : graph_(std::move(graph)),
        shard_(shard),
        server_(options),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  uint64_t num_nodes() const override { return graph_->num_nodes(); }
  const AccessOptions& options() const override { return server_.options(); }

  Result<FetchReply> FetchNeighbors(NodeId u) override {
    if (u >= graph_->num_nodes()) {
      return NodeOutOfRangeError(u, graph_->num_nodes());
    }
    if (graph_->ShardOf(u) != shard_) {
      return Status::Internal("node " + std::to_string(u) +
                              " routed to shard " + std::to_string(shard_) +
                              " but is owned by shard " +
                              std::to_string(graph_->ShardOf(u)));
    }
    FetchReply reply;
    reply.shard = shard_;
    server_.Serve(u, graph_->Neighbors(u), &reply);
    return reply;
  }

 private:
  std::shared_ptr<const ShardedGraph> graph_;
  int shard_;
  RestrictionServer server_;
  std::string name_;
};

}  // namespace

struct ShardedBackend::Shard {
  std::shared_ptr<AccessBackend> stack;

  // serial_service: requests waiting for the shard, as closures that start
  // them, and whether one is in service.
  std::mutex service_mu;
  std::deque<std::function<void()>> waiting;
  bool busy = false;
  bool pumping = false;  // a thread is inside Pump's start loop
  bool repump = false;   // state changed while pumping; loop again

  mutable std::mutex counters_mu;
  ShardCounters counters;

  /// Queues `start` behind the request in service. It runs once the shard
  /// is free, on whichever thread frees it, and its request must end in
  /// exactly one Finish().
  void Enqueue(std::function<void()> start) {
    std::unique_lock<std::mutex> lock(service_mu);
    waiting.push_back(std::move(start));
    Pump(lock);
  }

  /// The request in service is done: the next one in the FIFO starts.
  void Finish() {
    std::unique_lock<std::mutex> lock(service_mu);
    busy = false;
    Pump(lock);
  }

  /// Blocks the calling thread until the shard is its to use.
  void AwaitTurn() {
    {
      std::lock_guard<std::mutex> lock(service_mu);
      if (!busy && waiting.empty()) {  // free: no one to queue behind
        busy = true;
        return;
      }
    }
    auto turn = std::make_shared<std::promise<void>>();
    std::future<void> ready = turn->get_future();
    Enqueue([turn] { turn->set_value(); });
    ready.wait();
  }

  void Count(uint64_t fetches, double stall_seconds) {
    std::lock_guard<std::mutex> lock(counters_mu);
    counters.fetches += fetches;
    counters.stall_seconds += stall_seconds;
  }

  void Count(const Result<FetchReply>& reply) {
    if (reply.ok()) Count(1, reply->serial_seconds);
  }

 private:
  // Starts waiting requests while the shard is free. A request completing
  // inside its start calls Finish() from within this loop; the pumping flag
  // turns that recursion into another turn of the loop.
  void Pump(std::unique_lock<std::mutex>& lock) {
    if (pumping) {
      repump = true;
      return;
    }
    pumping = true;
    do {
      repump = false;
      while (!busy && !waiting.empty()) {
        std::function<void()> start = std::move(waiting.front());
        waiting.pop_front();
        busy = true;
        lock.unlock();
        start();
        start = nullptr;
        lock.lock();
      }
    } while (repump);
    pumping = false;
  }
};

ShardedBackend::ShardedBackend(std::shared_ptr<const ShardedGraph> graph,
                               ShardedBackendOptions options)
    : graph_(std::move(graph)), options_(options) {
  WNW_CHECK(graph_ != nullptr && graph_->num_shards() >= 1);
  shards_.reserve(static_cast<size_t>(graph_->num_shards()));
  auto timer = std::make_shared<DeadlineTimer>();  // shared by all shards
  for (int s = 0; s < graph_->num_shards(); ++s) {
    auto shard = std::make_shared<Shard>();
    std::shared_ptr<AccessBackend> stack = std::make_shared<ShardOriginBackend>(
        graph_, s, options_.access, options_.origin_name);
    if (options_.latency.has_value()) {
      // Independent network randomness per endpoint; same distribution.
      LatencyConfig config = *options_.latency;
      config.seed = Mix64(config.seed ^ static_cast<uint64_t>(s));
      stack = std::make_shared<LatencyBackend>(std::move(stack), config, timer);
    }
    if (options_.access.rate_limit.queries_per_window > 0) {
      // One §1 query budget per endpoint: stalls sum within a shard and
      // overlap across shards.
      stack = std::make_shared<RateLimitBackend>(std::move(stack),
                                                 options_.access.rate_limit);
    }
    shard->stack = std::move(stack);
    shards_.push_back(std::move(shard));
  }
  name_ = StrFormat("sharded[%s:%d](%s)",
                    std::string(ShardPartitionKey(graph_->partition())).c_str(),
                    num_shards(),
                    std::string(shards_[0]->stack->name()).c_str());
}

Result<FetchReply> ShardedBackend::FetchNeighbors(NodeId u) {
  if (u >= graph_->num_nodes()) {
    return NodeOutOfRangeError(u, graph_->num_nodes());
  }
  Shard& shard = *shards_[static_cast<size_t>(graph_->ShardOf(u))];
  // The shard is a single-threaded server: the request (including any real
  // latency sleep inside the stack) occupies it exclusively, so concurrent
  // callers queue — the wall-clock cost sharding exists to divide.
  if (options_.serial_service) shard.AwaitTurn();
  Result<FetchReply> reply = shard.stack->FetchNeighbors(u);
  if (options_.serial_service) shard.Finish();
  shard.Count(reply);
  return reply;
}

void ShardedBackend::FetchNeighborsCompletion(NodeId u,
                                              CompletionCallback done) {
  if (u >= graph_->num_nodes()) {
    done(NodeOutOfRangeError(u, graph_->num_nodes()));
    return;
  }
  // Completions hold the shard itself, never `this`: the last reference to
  // the backend may be released the moment `done` fires.
  std::shared_ptr<Shard> shard =
      shards_[static_cast<size_t>(graph_->ShardOf(u))];
  const bool serial = options_.serial_service;
  auto start = [shard, u, serial, done = std::move(done)]() mutable {
    shard->stack->FetchNeighborsCompletion(
        u, [shard, serial, done = std::move(done)](Result<FetchReply> reply) {
          shard->Count(reply);
          // The next request starts before this one's callback chain runs.
          if (serial) shard->Finish();
          done(std::move(reply));
        });
  };
  if (serial) {
    shard->Enqueue(std::move(start));
  } else {
    start();
  }
}

Result<BatchReply> ShardedBackend::FetchBatch(std::span<const NodeId> nodes) {
  for (NodeId u : nodes) {
    if (u >= graph_->num_nodes()) {
      return NodeOutOfRangeError(u, graph_->num_nodes());
    }
  }

  // Per-shard sub-batches, each taking its turn in the shard's FIFO, with
  // accounting-only concurrency across shards (the batch pays the slowest
  // shard's completion time).
  std::vector<std::vector<NodeId>> sub_nodes(shards_.size());
  std::vector<std::vector<size_t>> sub_index(shards_.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const size_t s = static_cast<size_t>(graph_->ShardOf(nodes[i]));
    sub_nodes[s].push_back(nodes[i]);
    sub_index[s].push_back(i);
  }
  BatchReply reply;
  reply.lists.resize(nodes.size());
  reply.shards.assign(nodes.size(), 0);
  double slowest_shard = 0.0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (sub_nodes[s].empty()) continue;
    Shard& shard = *shards_[s];
    if (options_.serial_service) shard.AwaitTurn();
    Result<BatchReply> sub = shard.stack->FetchBatch(sub_nodes[s]);
    if (options_.serial_service) shard.Finish();
    WNW_RETURN_IF_ERROR(sub.status());
    slowest_shard = std::max(slowest_shard, sub->simulated_seconds);
    double stall = 0.0;
    for (double v : sub->shard_stalls) stall += v;
    reply.BillStall(static_cast<int32_t>(s), stall);
    shard.Count(sub_nodes[s].size(), stall);
    for (size_t j = 0; j < sub_index[s].size(); ++j) {
      reply.lists[sub_index[s][j]] = std::move(sub->lists[j]);
      reply.shards[sub_index[s][j]] = static_cast<int32_t>(s);
    }
  }
  reply.simulated_seconds = slowest_shard;
  return reply;
}

void ShardedBackend::ResetSimulation() {
  for (auto& shard : shards_) {
    shard->stack->ResetSimulation();
    std::lock_guard<std::mutex> lock(shard->counters_mu);
    shard->counters = ShardCounters{};
  }
}

std::vector<ShardedBackend::ShardCounters> ShardedBackend::CountersSnapshot()
    const {
  std::vector<ShardCounters> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->counters_mu);
    out.push_back(shard->counters);
  }
  return out;
}

}  // namespace wnw
