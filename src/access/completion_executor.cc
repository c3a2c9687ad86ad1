#include "access/completion_executor.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/check.h"

namespace wnw {

Result<BatchReply> CompletionExecutor::BatchHandle::Wait() {
  WNW_CHECK(latch_ != nullptr);
  std::shared_ptr<BatchLatch> latch = std::move(latch_);
  return latch->Wait();
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

CompletionExecutor::BatchHandle CompletionExecutor::SubmitBatch(
    std::shared_ptr<AccessBackend> backend, std::span<const NodeId> nodes) {
  WNW_CHECK(backend != nullptr);
  BatchHandle handle;
  handle.latch_ = std::make_shared<BatchLatch>(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    SubmitFetch(backend, nodes[i], BatchLatch::Slot(handle.latch_, i));
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
