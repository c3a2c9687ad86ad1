#include "access/completion_executor.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/check.h"

namespace wnw {

Result<BatchReply> CompletionExecutor::BatchHandle::Wait() {
  WNW_CHECK(state_ != nullptr);
  std::shared_ptr<State> state = std::move(state_);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->remaining == 0; });
  }
  // Sole owner of the slots now: every completion fired (remaining == 0
  // publishes after the last slot write under state->mu).
  BatchReply reply;
  reply.lists.reserve(state->slots.size());
  reply.shards.reserve(state->slots.size());
  Status first_error = Status::OK();
  // Replies group by the origin shard that served them: within a shard the
  // batch completes when its slowest parallelizable request does, plus
  // every server-enforced serial stall (rate-limit tokens) of that shard's
  // own limiter; across shards those completion times overlap, so the batch
  // pays the slowest shard — the same totals the synchronous FetchBatch
  // decorators and ShardedBackend account. Unsharded origins put every
  // reply in shard 0, reducing to max(parallel) + sum(serial).
  std::vector<double> shard_parallel;  // indexed by shard
  std::vector<double> shard_serial;
  for (std::optional<Result<FetchReply>>& slot : state->slots) {
    WNW_CHECK(slot.has_value());
    Result<FetchReply>& one = *slot;
    if (!one.ok()) {
      // Keep folding: every slot is consumed so the caller gets complete
      // (if partly empty) lists plus the first failure.
      if (first_error.ok()) first_error = one.status();
      reply.lists.emplace_back();
      reply.shards.push_back(0);
      continue;
    }
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
  if (!first_error.ok()) return first_error;
  for (size_t s = 0; s < shard_parallel.size(); ++s) {
    reply.simulated_seconds =
        std::max(reply.simulated_seconds, shard_parallel[s] + shard_serial[s]);
  }
  return reply;
}

CompletionExecutor::CompletionExecutor(AsyncOptions options)
    : options_(options) {
  WNW_CHECK(options_.window >= 1);
}

CompletionExecutor::~CompletionExecutor() {
  std::vector<FetchCallback> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Queued-but-unstarted requests are cancelled, not run: their
    // completions fire with a Status so any outstanding future (or
    // BatchHandle) unblocks instead of hanging forever.
    stats_.cancelled += queue_.size();
    cancelled.reserve(queue_.size());
    for (Op& op : queue_) cancelled.push_back(std::move(op.done));
    queue_.clear();
  }
  for (FetchCallback& done : cancelled) {
    done(Status::FailedPrecondition("fetch executor shut down before the "
                                    "request was dispatched"));
  }
  // Operations already handed to a backend complete on their own; every
  // backend guarantees its callback eventually fires (deadline timers,
  // connection teardown), so this wait is bounded.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  DrainRetired();
}

void CompletionExecutor::SubmitFetch(std::shared_ptr<AccessBackend> backend,
                                     NodeId node, FetchCallback done) {
  WNW_CHECK(backend != nullptr);
  WNW_CHECK(done != nullptr);
  DrainRetired();
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    lock.unlock();
    done(Status::FailedPrecondition(
        "fetch executor is shutting down; request rejected"));
    return;
  }
  ++stats_.submitted;
  queue_.push_back({std::move(backend), node, std::move(done)});
  PumpLocked(lock);
}

CompletionExecutor::FetchFuture CompletionExecutor::SubmitFetch(
    std::shared_ptr<AccessBackend> backend, NodeId node) {
  auto promise = std::make_shared<std::promise<Result<FetchReply>>>();
  FetchFuture future = promise->get_future();
  SubmitFetch(std::move(backend), node,
              [promise = std::move(promise)](Result<FetchReply> result) {
                promise->set_value(std::move(result));
              });
  return future;
}

CompletionExecutor::FetchCallback CompletionExecutor::BatchSlotCallback(
    std::shared_ptr<BatchHandle::State> state, size_t i) {
  return [state = std::move(state), i](Result<FetchReply> result) {
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->slots[i] = std::move(result);
      last = --state->remaining == 0;
    }
    if (last) state->cv.notify_all();
  };
}

CompletionExecutor::BatchHandle CompletionExecutor::SubmitBatch(
    std::shared_ptr<AccessBackend> backend, std::span<const NodeId> nodes) {
  WNW_CHECK(backend != nullptr);
  BatchHandle handle;
  handle.state_ = std::make_shared<BatchHandle::State>();
  handle.state_->remaining = nodes.size();
  handle.state_->slots.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    SubmitFetch(backend, nodes[i], BatchSlotCallback(handle.state_, i));
  }
  return handle;
}

CompletionExecutor::Stats CompletionExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CompletionExecutor::PumpLocked(std::unique_lock<std::mutex>& lock) {
  if (pumping_) {
    // Another frame of this function is live below us on the stack (an
    // inline completion) or on another thread; it will notice and loop.
    repump_ = true;
    return;
  }
  pumping_ = true;
  bool again = true;
  while (again) {
    repump_ = false;
    while (!stopping_ && !queue_.empty() && in_flight_ < options_.window) {
      Op op = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
      lock.unlock();
      // The backend may invoke the completion before returning; the
      // pumping_ flag turns that recursion into another `again` turn.
      Dispatch(std::move(op));
      lock.lock();
    }
    again = repump_;
  }
  pumping_ = false;
}

void CompletionExecutor::Dispatch(Op op) {
  struct InFlight {
    CompletionExecutor* self = nullptr;
    std::shared_ptr<AccessBackend> backend;
    FetchCallback done;
    std::atomic<bool> fired{false};
  };
  auto ctx = std::make_shared<InFlight>();
  ctx->self = this;
  ctx->backend = std::move(op.backend);
  ctx->done = std::move(op.done);
  AccessBackend* raw = ctx->backend.get();
  raw->FetchNeighborsCompletion(op.node, [ctx](Result<FetchReply> result) {
    // One-shot: a hostile or buggy backend completing twice must not
    // corrupt the window accounting.
    if (ctx->fired.exchange(true, std::memory_order_acq_rel)) return;
    CompletionExecutor* self = ctx->self;
    {
      // Retire the backend reference BEFORE the completion runs: once
      // `done` fires, the waiter may release the last outside reference,
      // and if this wrapper (destroyed later, maybe on the backend's own
      // thread) still held one, the backend's destructor would join its
      // own thread. Retired references are released from submission paths
      // / the executor destructor instead. The op is counted here too, so
      // a waiter returning from Wait() sees it in stats().
      std::lock_guard<std::mutex> lock(self->mu_);
      self->retired_.push_back(std::move(ctx->backend));
      ++self->stats_.completed;
    }
    FetchCallback done = std::move(ctx->done);
    done(std::move(result));
    self->OnComplete();
  });
}

void CompletionExecutor::OnComplete() {
  std::unique_lock<std::mutex> lock(mu_);
  --in_flight_;
  if (stopping_) {
    // The destructor may be waiting for the last completion. Only the
    // notify happens after the counters — nothing below touches the
    // executor once the destructor can proceed.
    drain_cv_.notify_all();
    return;
  }
  PumpLocked(lock);
}

void CompletionExecutor::DrainRetired() {
  std::vector<std::shared_ptr<AccessBackend>> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired.swap(retired_);
  }
  // Released here, outside the lock, on a submitting (never a backend's
  // own) thread. A release that is the last reference may run a backend
  // destructor that joins its own thread — safe from here.
}

}  // namespace wnw
