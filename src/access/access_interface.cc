#include "access/access_interface.h"

#include <algorithm>

#include "access/decorators.h"
#include "util/check.h"
#include "util/logging.h"

namespace wnw {

namespace {

// Folds one answered batch into the per-session meter: every request is a
// backend fetch billed to the shard that served it, and each shard's serial
// rate-limit stalls land in that shard's bucket.
void BillBatch(CostMeter& meter, const BatchReply& reply, size_t requests) {
  meter.backend_fetches += requests;
  meter.waited_seconds += reply.simulated_seconds;
  for (size_t i = 0; i < requests; ++i) {
    meter.BillShard(reply.shards.empty() ? 0 : reply.shards[i], 1, 0.0);
  }
  for (size_t s = 0; s < reply.shard_stalls.size(); ++s) {
    meter.BillShard(static_cast<int32_t>(s), 0, reply.shard_stalls[s]);
  }
}

}  // namespace

AccessInterface::AccessInterface(const Graph* graph, AccessOptions options)
    : AccessInterface(BuildBackendStack(graph, {.access = options,
                                                .latency = std::nullopt,
                                                .snapshot = {}})) {}

AccessInterface::AccessInterface(std::shared_ptr<AccessBackend> backend,
                                 std::shared_ptr<QueryCache> cache,
                                 std::shared_ptr<CompletionExecutor> executor)
    : backend_(std::move(backend)),
      cache_(std::move(cache)),
      executor_(std::move(executor)),
      cacheable_(false),
      symmetric_view_(false),
      seen_(0) {
  WNW_CHECK(backend_ != nullptr);
  cacheable_ = backend_->deterministic();
  const AccessOptions& opts = backend_->options();
  symmetric_view_ = opts.restriction == NeighborRestriction::kNone ||
                    (cacheable_ && opts.bidirectional_check);
  seen_.assign(backend_->num_nodes(), 0);
}

AccessInterface::~AccessInterface() { Wait(); }

std::span<const NodeId> AccessInterface::StoreLocal(NodeId u,
                                                    std::vector<NodeId>&& list) {
  CachedList entry;
  entry.owned = std::move(list);
  // A vector move transfers the heap buffer, so this span survives both the
  // emplace below and any later growth of the flat table.
  entry.view = entry.owned;
  return local_cache_.Emplace(u, std::move(entry)).view;
}

std::span<const NodeId> AccessInterface::StoreLocalView(
    NodeId u, std::span<const NodeId> view) {
  CachedList entry;
  entry.view = view;
  return local_cache_.Emplace(u, std::move(entry)).view;
}

void AccessInterface::Admit(NodeId u, std::vector<NodeId>&& list) {
  if (seen_[u] == 0) {
    seen_[u] = 1;
    ++meter_.unique_cost;
  }
  if (cache_ != nullptr) cache_->Insert(u, list);
  StoreLocal(u, std::move(list));
}

void AccessInterface::AdmitView(NodeId u, std::span<const NodeId> view) {
  if (seen_[u] == 0) {
    seen_[u] = 1;
    ++meter_.unique_cost;
  }
  if (cache_ != nullptr) cache_->Insert(u, view);
  StoreLocalView(u, view);
}

std::span<const NodeId> AccessInterface::FetchLocal(NodeId u) {
  WNW_DCHECK(u < seen_.size());
  if (cacheable_) {
    if (!pending_nodes_.empty() && pending_nodes_.count(u) > 0) {
      // An in-flight prefetch covers u; fold just that batch.
      const NodeId one[] = {u};
      WaitFor(one);
    }
    if (const CachedList* hit = local_cache_.Find(u); hit != nullptr) {
      return hit->view;
    }
    if (cache_ != nullptr) {
      std::vector<NodeId> list;
      if (cache_->Lookup(u, &list)) {
        // History reuse: another session already paid for this node. The
        // shared cache may evict, so the session keeps its own copy.
        ++meter_.shared_cache_hits;
        seen_[u] = 1;
        return StoreLocal(u, std::move(list));
      }
    }
  }
  // With an executor, even single fetches occupy an in-flight window slot:
  // the bound holds across every concurrent session sharing the executor.
  Result<FetchReply> reply =
      executor_ != nullptr ? executor_->SubmitFetch(backend_, u).get()
                           : backend_->FetchNeighbors(u);
  if (!reply.ok()) {
    // Backends only fail on programmer error or an exhausted simulated
    // retry budget; neither is recoverable mid-walk.
    WNW_LOG(kError) << "backend fetch failed: " << reply.status().ToString();
    WNW_CHECK(reply.ok());
  }
  ++meter_.backend_fetches;
  meter_.waited_seconds += reply->simulated_seconds;
  meter_.BillShard(reply->shard, 1, reply->serial_seconds);
  if (cacheable_) {
    if (reply->owned.empty()) {
      // Arena-backed reply: keep the span, skip the per-session copy (the
      // arena outlives the session through backend_).
      AdmitView(u, reply->neighbors);
    } else {
      Admit(u, std::move(reply->owned));
    }
    return local_cache_.Find(u)->view;
  }
  if (seen_[u] == 0) {
    seen_[u] = 1;
    ++meter_.unique_cost;
  }
  if (!reply->owned.empty()) {
    scratch_ = std::move(reply->owned);
    return scratch_;
  }
  // Arena-backed response: the span is stable for the backend's lifetime,
  // so it can be handed out without a copy.
  return reply->neighbors;
}

void AccessInterface::PrefetchAsync(std::span<const NodeId> nodes) {
  if (!cacheable_) return;  // nothing stable to hold on to
  batch_buf_.clear();
  for (NodeId u : nodes) {
    WNW_DCHECK(u < seen_.size());
    if (local_cache_.Contains(u)) continue;
    if (!pending_nodes_.empty() && pending_nodes_.count(u) > 0) continue;
    if (cache_ != nullptr) {
      std::vector<NodeId> list;
      if (cache_->Lookup(u, &list)) {
        ++meter_.shared_cache_hits;
        seen_[u] = 1;
        StoreLocal(u, std::move(list));
        continue;
      }
    }
    batch_buf_.push_back(u);
  }
  if (batch_buf_.empty()) return;
  std::sort(batch_buf_.begin(), batch_buf_.end());
  batch_buf_.erase(std::unique(batch_buf_.begin(), batch_buf_.end()),
                   batch_buf_.end());
  ++meter_.prefetch_batches;

  if (executor_ == nullptr) {
    // No executor: the synchronous FetchBatch path, billed by the same
    // BatchLatch fold as an executor batch (it pays the slowest round trip).
    auto reply = backend_->FetchBatch(batch_buf_);
    if (!reply.ok()) {
      WNW_LOG(kError) << "backend batch fetch failed: "
                      << reply.status().ToString();
      WNW_CHECK(reply.ok());
    }
    BillBatch(meter_, *reply, batch_buf_.size());
    for (size_t i = 0; i < batch_buf_.size(); ++i) {
      Admit(batch_buf_[i], std::move(reply->lists[i]));
    }
    return;
  }

  PendingBatch pending;
  pending.handle = executor_->SubmitBatch(backend_, batch_buf_);
  pending_nodes_.insert(batch_buf_.begin(), batch_buf_.end());
  pending.nodes = std::move(batch_buf_);  // next use clear()s the buffer
  pending_.push_back(std::move(pending));
}

void AccessInterface::FoldPending(size_t index) {
  WNW_DCHECK(index < pending_.size());
  PendingBatch batch = std::move(pending_[index]);
  pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(index));
  auto reply = batch.handle.Wait();
  if (!reply.ok()) {
    WNW_LOG(kError) << "async prefetch batch failed: "
                    << reply.status().ToString();
    WNW_CHECK(reply.ok());
  }
  // Billing matches the synchronous batch path: every node pays
  // distinct-node cost, the session waits for the slowest shard.
  BillBatch(meter_, *reply, batch.nodes.size());
  for (size_t i = 0; i < batch.nodes.size(); ++i) {
    pending_nodes_.erase(batch.nodes[i]);
    Admit(batch.nodes[i], std::move(reply->lists[i]));
  }
}

void AccessInterface::Wait() {
  while (!pending_.empty()) FoldPending(pending_.size() - 1);
}

void AccessInterface::WaitFor(std::span<const NodeId> nodes) {
  if (pending_.empty() || pending_nodes_.empty()) return;
  for (size_t i = pending_.size(); i-- > 0;) {
    const auto& batch_nodes = pending_[i].nodes;
    const bool hit = std::any_of(nodes.begin(), nodes.end(), [&](NodeId u) {
      return std::binary_search(batch_nodes.begin(), batch_nodes.end(), u);
    });
    if (hit) FoldPending(i);
  }
}

void AccessInterface::Prefetch(std::span<const NodeId> nodes) {
  PrefetchAsync(nodes);
  WaitFor(nodes);
}

std::span<const NodeId> AccessInterface::Neighbors(NodeId u) {
  ++meter_.total_queries;
  return FetchLocal(u);
}

uint32_t AccessInterface::Degree(NodeId u) {
  return static_cast<uint32_t>(Neighbors(u).size());
}

std::span<const NodeId> AccessInterface::EffectiveNeighbors(NodeId u) {
  // A repeat of a recent answer bills the query but skips the probe: a
  // session-cache hit has no other effect (u cannot be pending, and its
  // distinct-node cost is already paid).
  if (recent_[0].node == u) {
    ++meter_.total_queries;
    return recent_[0].list;
  }
  if (recent_[1].node == u) {
    ++meter_.total_queries;
    std::swap(recent_[0], recent_[1]);
    return recent_[0].list;
  }
  const auto list = LookupEffective(u);
  if (cacheable_) {
    recent_[1] = recent_[0];
    recent_[0] = {u, list};
  }
  return list;
}

std::span<const NodeId> AccessInterface::LookupEffective(NodeId u) {
  const AccessOptions& opts = backend_->options();
  switch (opts.restriction) {
    case NeighborRestriction::kNone:
      return Neighbors(u);
    case NeighborRestriction::kRandomSubset:
      WNW_CHECK(false &&
                "EffectiveNeighbors undefined under kRandomSubset; use "
                "SampleNeighbor");
      return {};
    case NeighborRestriction::kFixedSubset:
    case NeighborRestriction::kTruncated:
      break;
  }
  ++meter_.total_queries;
  const auto raw = FetchLocal(u);
  if (!opts.bidirectional_check) return raw;
  if (const std::vector<NodeId>* cached = effective_cache_.Find(u);
      cached != nullptr) {
    return *cached;
  }
  // Mutual-visibility filter: every candidate endpoint is probed (and
  // billed); the probes are independent, so batch them — a latency backend
  // serves the whole ring in one simulated round trip.
  Prefetch(raw);
  std::vector<NodeId> effective;
  effective.reserve(raw.size());
  for (NodeId v : raw) {
    ++meter_.total_queries;  // the probe of v's list
    const auto vlist = FetchLocal(v);
    // u is visible from v iff v's (possibly truncated) response lists it;
    // untruncated responses always do (u and v are graph neighbors).
    if (std::find(vlist.begin(), vlist.end(), u) != vlist.end()) {
      effective.push_back(v);
    }
  }
  return effective_cache_.Emplace(u, std::move(effective));
}

NodeId AccessInterface::SampleNeighbor(NodeId u, Rng& rng) {
  if (backend_->options().restriction == NeighborRestriction::kRandomSubset) {
    const auto list = Neighbors(u);
    if (list.empty()) return kInvalidNode;
    return list[rng.NextBounded(list.size())];
  }
  const auto list = EffectiveNeighbors(u);
  if (list.empty()) return kInvalidNode;
  return list[rng.NextBounded(list.size())];
}

void AccessInterface::ResetCounters() {
  Wait();
  std::fill(seen_.begin(), seen_.end(), 0);
  meter_.Reset();
  local_cache_.Clear();
  effective_cache_.Clear();
  recent_ = {};
  backend_->ResetSimulation();
}

double EstimateDegreeMarkRecapture(AccessInterface& access, NodeId u,
                                   int calls) {
  WNW_CHECK(calls >= 2);
  const uint32_t cap = access.options().max_neighbors;
  std::vector<std::vector<NodeId>> captures;
  captures.reserve(static_cast<size_t>(calls));
  for (int c = 0; c < calls; ++c) {
    const auto list = access.Neighbors(u);
    if (cap == 0 || list.size() < cap) {
      // Not truncated: the visible list is the full neighborhood.
      return static_cast<double>(list.size());
    }
    std::vector<NodeId> sorted(list.begin(), list.end());
    std::sort(sorted.begin(), sorted.end());
    captures.push_back(std::move(sorted));
  }
  // Petersen across all call pairs: E[|A ∩ B|] = k^2 / d.
  uint64_t overlap = 0;
  uint64_t pairs = 0;
  std::vector<NodeId> inter;
  for (size_t i = 0; i < captures.size(); ++i) {
    for (size_t j = i + 1; j < captures.size(); ++j) {
      inter.clear();
      std::set_intersection(captures[i].begin(), captures[i].end(),
                            captures[j].begin(), captures[j].end(),
                            std::back_inserter(inter));
      overlap += inter.size();
      ++pairs;
    }
  }
  const double k = static_cast<double>(cap);
  return k * k * static_cast<double>(pairs) /
         std::max<double>(1.0, static_cast<double>(overlap));
}

}  // namespace wnw
