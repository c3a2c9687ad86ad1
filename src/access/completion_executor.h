// The completion executor: the access layer's single concurrency
// primitive, driving a bounded in-flight request window by COMPLETION
// rather than by blocked thread. It models a crawler that keeps at most
// `window` requests open against the OSN service at any instant (the
// paper's whole premise is that round trips, not compute, dominate
// sampling time — so the only way to go faster at fixed query cost is to
// keep the pipe full) without paying one OS thread per open request.
//
// Every operation is one AccessBackend::FetchNeighborsCompletion call;
// the executor owns no thread. A FIFO admission queue feeds the window,
// and a completion frees its slot and admits the next queued operation on
// whichever thread delivered it:
//
//   - backends that wait complete later from a thread of their own:
//     RemoteBackend from its client event loop (512 in-flight remote
//     requests cost 512 pending frames), a sleeping LatencyBackend
//     (sleep_scale > 0) from its deadline timer, with ShardedBackend and
//     RateLimitBackend forwarding the completion;
//   - origins that answer from memory (in-memory, snapshot, and stacks of
//     unslept decorators over them) complete inline on the submitting
//     thread.
//
// Decorators do their work in FetchNeighborsCompletion (their synchronous
// FetchNeighbors only waits on it). A custom origin whose FetchNeighbors
// blocks runs inline, on the submitting thread; its requests overlap under
// a window only if it overrides FetchNeighborsCompletion to complete
// asynchronously. A batch is joined by a BatchLatch, whose fold bills it
// exactly like a synchronous AccessBackend::FetchBatch.
//
// The executor is the same primitive AccessInterface::PrefetchAsync /
// Wait, RunWalkerPool, and RunWalkEngine compose over:
//
//   - PrefetchAsync fans a batch out into per-node fetch operations and
//     returns immediately; compute overlaps the round trips and Wait() (or
//     the first query touching a pending node) folds the replies into the
//     session caches.
//   - With an executor attached, AccessInterface routes single fetches
//     through the window too, so N concurrent walkers sharing one executor
//     overlap each other's round trips while the service never sees more
//     than `window` requests in flight.
//
// Operations are leaf requests only — they never wait on other operations
// — which keeps the bounded window deadlock-free by construction. The
// executor is thread-safe and shared: one executor models one crawler
// frontend, used by any number of sessions. See docs/CONCURRENCY.md for the
// dispatch table.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "access/backend.h"

namespace wnw {

struct AsyncOptions {
  /// Maximum fetches in flight against the backend at any instant. 1 fully
  /// serializes all requests through the executor (the "wait" baseline).
  int window = 8;
};

/// Window-bounded fetch executor. Submissions admit FIFO; at most `window`
/// are open concurrently. Destruction cancels queued-but-unstarted
/// operations (their completions fire with FailedPrecondition) and waits
/// out in-flight completions, so shutting down with requests in flight is
/// always safe.
class CompletionExecutor {
 public:
  using FetchFuture = std::future<Result<FetchReply>>;

  /// Invoked exactly once per submitted operation — from the backend's own
  /// thread for asynchronous completions, inline from the submitting thread
  /// (or whichever thread admitted the operation) otherwise, or from the
  /// submitting/destructing thread on rejection or cancellation. Must not
  /// block or submit further executor work.
  using FetchCallback = std::function<void(Result<FetchReply>)>;

  /// The in-flight half of one SubmitBatch call: a BatchLatch over the
  /// per-request completions, so Wait() bills the batch by the same fold
  /// as a synchronous AccessBackend::FetchBatch. Dropping a handle without
  /// waiting is safe — the underlying operations still run to completion
  /// and their results are discarded.
  class BatchHandle {
   public:
    BatchHandle() = default;
    BatchHandle(BatchHandle&&) = default;
    BatchHandle& operator=(BatchHandle&&) = default;
    BatchHandle(const BatchHandle&) = delete;
    BatchHandle& operator=(const BatchHandle&) = delete;

    /// Blocks until every request completed; at most one call. On a failed
    /// request the remaining completions are still drained and the first
    /// error is returned.
    Result<BatchReply> Wait();

    size_t size() const { return latch_ == nullptr ? 0 : latch_->size(); }
    bool pending() const { return latch_ != nullptr; }

   private:
    friend class CompletionExecutor;

    std::shared_ptr<BatchLatch> latch_;
  };

  explicit CompletionExecutor(AsyncOptions options = {});
  ~CompletionExecutor();

  CompletionExecutor(const CompletionExecutor&) = delete;
  CompletionExecutor& operator=(const CompletionExecutor&) = delete;

  /// Submits one FetchNeighbors(node) operation; `done` fires exactly once
  /// with the reply. The backend is captured by shared_ptr for the
  /// operation's lifetime.
  void SubmitFetch(std::shared_ptr<AccessBackend> backend, NodeId node,
                   FetchCallback done);

  /// SubmitFetch with a future instead of a callback.
  FetchFuture SubmitFetch(std::shared_ptr<AccessBackend> backend, NodeId node);

  /// Fans `nodes` out into one operation per node, all competing for the
  /// window. This is the windowed counterpart of AccessBackend::FetchBatch,
  /// billed by the same BatchLatch; over an asynchronous backend the whole
  /// batch is in flight at once with no thread parked.
  BatchHandle SubmitBatch(std::shared_ptr<AccessBackend> backend,
                          std::span<const NodeId> nodes);

  const AsyncOptions& options() const { return options_; }
  int window() const { return options_.window; }

  struct Stats {
    uint64_t submitted = 0;   // operations accepted
    uint64_t completed = 0;   // operations that ran to completion
    uint64_t cancelled = 0;   // queued operations dropped by shutdown
    int max_in_flight = 0;    // peak concurrent operations (<= window)
  };
  Stats stats() const;

 private:
  /// One admitted-or-queued operation.
  struct Op {
    std::shared_ptr<AccessBackend> backend;
    NodeId node = 0;
    FetchCallback done;
  };

  /// Admits queue-front operations while window slots are free. Requires
  /// `lock` held on mu_; releases it around each dispatch. Reentrancy-safe:
  /// a completion firing inline inside a dispatch marks repump instead of
  /// recursing.
  void PumpLocked(std::unique_lock<std::mutex>& lock);

  /// Hands one op to its backend. The completion wrapper retires the
  /// backend reference into retired_ BEFORE invoking `done`, so the last
  /// external release never lands on a backend's own thread (a
  /// RemoteBackend destructor joins its event loop — see DrainRetired).
  void Dispatch(Op op);

  /// Window-slot release for a completion; pumps the queue.
  void OnComplete();

  /// Releases retired backend references on the calling thread. Called
  /// from submission paths and the destructor — never from a completion —
  /// so a release that turns out to be the last one runs a backend
  /// destructor (which may join the backend's own thread) from a safe
  /// thread.
  void DrainRetired();

  AsyncOptions options_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;  // in_flight_ reached 0 while stopping
  std::deque<Op> queue_;              // FIFO admission
  bool stopping_ = false;
  bool pumping_ = false;  // a thread is inside PumpLocked's dispatch loop
  bool repump_ = false;   // state changed while pumping_; loop again
  int in_flight_ = 0;     // admitted ops not yet completed (<= window)
  Stats stats_;
  std::vector<std::shared_ptr<AccessBackend>> retired_;  // see DrainRetired
};

}  // namespace wnw
