#include "access/sharded_backend.h"

#include <atomic>
#include <deque>
#include <functional>
#include <utility>

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

  void Count(const Result<FetchReply>& reply) {
    if (!reply.ok()) return;
    std::lock_guard<std::mutex> lock(counters_mu);
    ++counters.fetches;
    counters.stall_seconds += reply->serial_seconds;
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
                               ShardedBackendOptions options,
                               OriginWrapper wrap_origin)
    : graph_(std::move(graph)), options_(std::move(options)) {
  WNW_CHECK(graph_ != nullptr && graph_->num_shards() >= 1);
  shards_.reserve(static_cast<size_t>(graph_->num_shards()));
  auto timer = std::make_shared<DeadlineTimer>();  // shared by all shards
  for (int s = 0; s < graph_->num_shards(); ++s) {
    // Independent network randomness per endpoint; same distribution. Each
    // endpoint also has its own §1 query budget: stalls sum within a shard
    // and overlap across shards.
    std::optional<LatencyConfig> latency = options_.latency;
    if (latency.has_value()) {
      latency->seed = Mix64(latency->seed ^ static_cast<uint64_t>(s));
    }
    std::shared_ptr<AccessBackend> origin =
        std::make_shared<ShardOriginBackend>(graph_, s, options_.access,
                                             options_.origin_name);
    if (wrap_origin) origin = wrap_origin(s, std::move(origin));
    auto shard = std::make_shared<Shard>();
    shard->stack =
        DecorateOrigin(std::move(origin), options_.access, latency, timer);
    shards_.push_back(std::move(shard));
  }
  name_ = StrFormat("sharded[%s:%d](%s)",
                    std::string(ShardPartitionKey(graph_->partition())).c_str(),
                    num_shards(),
                    std::string(shards_[0]->stack->name()).c_str());
}

void ShardedBackend::Serve(size_t s, std::vector<Member> members,
                           MemberCallback done) {
  // Completions hold the shard itself, never `this`: the last reference to
  // the backend may be released the moment `done` fires.
  struct Turn {
    std::atomic<size_t> left;
    MemberCallback done;
  };
  const bool serial = options_.serial_service;
  auto start = [shard = shards_[s], serial, members = std::move(members),
                done = std::move(done)] {
    auto turn = std::make_shared<Turn>(members.size(), done);
    for (const auto& [u, slot] : members) {
      shard->stack->FetchNeighborsCompletion(
          u, [shard, serial, turn, slot = slot](Result<FetchReply> reply) {
            shard->Count(reply);
            // The next request starts before this one's callback chain runs.
            if (--turn->left == 0 && serial) shard->Finish();
            turn->done(slot, std::move(reply));
          });
    }
  };
  if (serial) {
    shards_[s]->Enqueue(std::move(start));
  } else {
    start();
  }
}

void ShardedBackend::FetchNeighborsCompletion(NodeId u,
                                              CompletionCallback done) {
  if (u >= graph_->num_nodes()) {
    done(NodeOutOfRangeError(u, graph_->num_nodes()));
    return;
  }
  Serve(static_cast<size_t>(graph_->ShardOf(u)), {{u, 0}},
        [done = std::move(done)](size_t, Result<FetchReply> reply) {
          done(std::move(reply));
        });
}

Result<BatchReply> ShardedBackend::FetchBatch(std::span<const NodeId> nodes) {
  for (NodeId u : nodes) {
    if (u >= graph_->num_nodes()) {
      return NodeOutOfRangeError(u, graph_->num_nodes());
    }
  }
  std::vector<std::vector<Member>> members(shards_.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    members[static_cast<size_t>(graph_->ShardOf(nodes[i]))].push_back(
        {nodes[i], i});
  }
  auto latch = std::make_shared<BatchLatch>(nodes.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (members[s].empty()) continue;
    Serve(s, std::move(members[s]),
          [latch](size_t i, Result<FetchReply> reply) {
            latch->Fill(i, std::move(reply));
          });
  }
  return latch->Wait();
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
