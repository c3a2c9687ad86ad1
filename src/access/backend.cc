#include "access/backend.h"

#include <algorithm>

#include "random/sampling.h"
#include "util/check.h"

namespace wnw {

Status NodeOutOfRangeError(NodeId u, uint64_t num_nodes) {
  return Status::OutOfRange("neighbor query for node " + std::to_string(u) +
                            " outside graph with " +
                            std::to_string(num_nodes) + " nodes");
}

void AccessBackend::FetchNeighborsCompletion(NodeId u,
                                             CompletionCallback done) {
  done(FetchNeighbors(u));
}

Result<FetchReply> AccessBackend::AwaitCompletion(NodeId u) {
  // Shared with the callback, which notifies after unlocking (a waiter
  // woken under the lock would only block again on the mutex) and so may
  // still touch the state after the waiter has returned.
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<FetchReply>> reply;
  };
  auto waiter = std::make_shared<Waiter>();
  FetchNeighborsCompletion(u, [waiter](Result<FetchReply> reply) {
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      waiter->reply.emplace(std::move(reply));
    }
    waiter->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->reply.has_value(); });
  return std::move(*waiter->reply);
}

Result<BatchReply> AccessBackend::FetchBatch(std::span<const NodeId> nodes) {
  auto latch = std::make_shared<BatchLatch>(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    FetchNeighborsCompletion(nodes[i], BatchLatch::Slot(latch, i));
  }
  return latch->Wait();
}

BatchLatch::BatchLatch(size_t size) : remaining_(size), slots_(size) {}

AccessBackend::CompletionCallback BatchLatch::Slot(
    std::shared_ptr<BatchLatch> latch, size_t i) {
  return [latch = std::move(latch), i](Result<FetchReply> reply) {
    latch->Fill(i, std::move(reply));
  };
}

void BatchLatch::Fill(size_t i, Result<FetchReply> reply) {
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[i] = std::move(reply);
    last = --remaining_ == 0;
  }
  if (last) cv_.notify_all();
}

Result<BatchReply> BatchLatch::Wait() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }
  // Sole user of the slots now: remaining_ == 0 publishes after the last
  // slot write under mu_.
  BatchReply reply;
  reply.lists.reserve(slots_.size());
  reply.shards.reserve(slots_.size());
  std::vector<double> shard_parallel;  // indexed by shard
  std::vector<double> shard_serial;
  for (std::optional<Result<FetchReply>>& slot : slots_) {
    WNW_CHECK(slot.has_value());
    Result<FetchReply>& one = *slot;
    if (!one.ok()) return one.status();
    const size_t s = static_cast<size_t>(one->shard);
    if (s >= shard_parallel.size()) {
      shard_parallel.resize(s + 1, 0.0);
      shard_serial.resize(s + 1, 0.0);
    }
    shard_parallel[s] = std::max(shard_parallel[s],
                                 one->simulated_seconds - one->serial_seconds);
    shard_serial[s] += one->serial_seconds;
    reply.shards.push_back(one->shard);
    reply.BillStall(one->shard, one->serial_seconds);
    reply.lists.push_back(one->TakeNeighbors());
  }
  for (size_t s = 0; s < shard_parallel.size(); ++s) {
    reply.simulated_seconds =
        std::max(reply.simulated_seconds, shard_parallel[s] + shard_serial[s]);
  }
  return reply;
}

RestrictionServer::RestrictionServer(AccessOptions options)
    : options_(options) {
  if (options_.restriction != NeighborRestriction::kNone) {
    WNW_CHECK(options_.max_neighbors > 0);
  }
}

const std::vector<NodeId>& RestrictionServer::TruncatedList(
    NodeId u, std::span<const NodeId> full) {
  auto it = fixed_subsets_.find(u);
  if (it == fixed_subsets_.end()) {
    const uint32_t cap = options_.max_neighbors;
    WNW_DCHECK(full.size() > cap);  // <= cap short-circuits before the map
    std::vector<NodeId> subset;
    if (options_.restriction == NeighborRestriction::kTruncated) {
      // Type 3: a fixed arbitrary prefix of the neighbor list.
      subset.assign(full.begin(), full.begin() + cap);
    } else {
      // Type 2: a fixed random k-subset, deterministic per node given the
      // server seed (the remote service always answers the same way).
      Rng node_rng(Mix64(options_.seed ^ (0x9e3779b97f4a7c15ull * (u + 1))));
      subset.reserve(cap);
      const auto picks = SampleWithoutReplacement(
          static_cast<uint32_t>(full.size()), cap, node_rng);
      for (uint32_t idx : picks) subset.push_back(full[idx]);
      std::sort(subset.begin(), subset.end());
    }
    it = fixed_subsets_.emplace(u, std::move(subset)).first;
  }
  return it->second;
}

void RestrictionServer::Serve(NodeId u, std::span<const NodeId> full,
                              FetchReply* reply) {
  const uint32_t cap = options_.max_neighbors;
  switch (options_.restriction) {
    case NeighborRestriction::kNone:
      reply->neighbors = full;  // straight into the adjacency arena
      return;
    case NeighborRestriction::kRandomSubset: {
      if (full.size() <= cap) {
        reply->neighbors = full;
        return;
      }
      // Fresh k-subset per call, drawn from a counter-mode stream keyed on
      // (seed, node, this node's call index). Only the counter bump needs
      // the lock; the draw itself runs on the caller's thread.
      uint64_t call_index;
      {
        std::lock_guard<std::mutex> lock(mu_);
        call_index = random_subset_calls_[u]++;
      }
      Rng call_rng(
          Mix64(options_.seed ^ Mix64(0x9e3779b97f4a7c15ull * (u + 1)) ^
                (0xbf58476d1ce4e5b9ull * (call_index + 1))));
      std::vector<NodeId> subset;
      subset.reserve(cap);
      const auto picks = SampleWithoutReplacement(
          static_cast<uint32_t>(full.size()), cap, call_rng);
      for (uint32_t idx : picks) subset.push_back(full[idx]);
      reply->SetOwned(std::move(subset));
      return;
    }
    case NeighborRestriction::kFixedSubset:
    case NeighborRestriction::kTruncated: {
      if (full.size() <= cap) {
        // A fixed subset of an untruncated list is the full list: serve the
        // arena directly, no server-side copy.
        reply->neighbors = full;
        return;
      }
      std::lock_guard<std::mutex> lock(mu_);
      reply->neighbors = TruncatedList(u, full);
      return;
    }
  }
}

InMemoryBackend::InMemoryBackend(const Graph* graph, AccessOptions options)
    : graph_(graph), server_(options) {
  WNW_CHECK(graph_ != nullptr);
}

Result<FetchReply> InMemoryBackend::FetchNeighbors(NodeId u) {
  if (u >= graph_->num_nodes()) {
    return NodeOutOfRangeError(u, graph_->num_nodes());
  }
  FetchReply reply;
  server_.Serve(u, graph_->Neighbors(u), &reply);
  return reply;
}

}  // namespace wnw
