// An epoll reactor: the concurrency substrate of the service tier.
//
// One EventLoop is one thread multiplexing many non-blocking sockets, so a
// server holding thousands of in-flight requests costs threads ≈ cores
// rather than threads ≈ window. The client side composes the same way: the
// CompletionExecutor (access/completion_executor.h) drives RemoteBackend
// fetches as completions off this loop, so the in-flight window costs
// pending frames, not parked threads.
//
// Threading model: everything except Post(), Stop() and Modify() is
// loop-affine — handlers run on the loop thread, and Add/Remove/AddTimer
// must be called from it (or before Run() starts, while the loop is still
// single threaded). Cross-thread work enters through Post(fn), which
// appends to a mutex-guarded queue and wakes the loop via an eventfd.
// Modify() is one epoll_ctl and touches no loop state, so any thread may
// call it on an fd that stays registered meanwhile: RemoteBackend turns
// off a connection's read interest while a blocking caller reads that
// socket itself. The server's connection buffers are only ever touched by
// their loop's thread; RemoteBackend's client buffers are shared with such
// a caller under a per-connection mutex the loop only try_locks.
//
// Deadlines ride a hashed timer wheel (10 ms ticks, 512 slots) swept after
// every epoll_wait; the wait timeout is derived from the wheel's next due
// timer, so an idle loop sleeps in the kernel instead of polling.
//
// Spin before parking: a loop whose previous wait ended within
// kSpinBeforePark first polls with epoll_wait(…, 0) for up to that long,
// yielding the CPU between polls, and only then sleeps. Timers fire on
// 10 ms wheel ticks, so a spin that runs past a due timer delays it by
// at most the budget. A reactor serving back-to-back requests then picks
// each one up without a thread wake-up; an idle or sparsely used loop
// parks at once (see SpinGate).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace wnw::net {

/// How long a wait that usually ends within microseconds polls before it
/// parks. Waking a parked thread costs ~11 µs on a 4-vCPU x86-64 VM, and a
/// loopback round trip has two of them (the server's epoll_wait, the
/// caller's poll), while the server's work is under 1 µs. A spinning wait
/// picks its answer up as soon as it lands. Both EventLoop::Run and a
/// blocking RemoteBackend round trip spin for at most this long per wait,
/// and call sched_yield() between polls: when both ends of a loopback
/// round trip share one CPU, the other end runs instead of waiting out the
/// spin. Shorter budgets (20 µs) left the spin switched off on a 4-vCPU VM
/// whose parked round trips took 30–60 µs.
inline constexpr std::chrono::microseconds kSpinBeforePark{50};

/// False when this process may use less than two CPUs at once: its
/// affinity mask allows one, or the CFS quota of the cgroup it sees at
/// /sys/fs/cgroup (v2 cpu.max, or v1 cpu.cfs_quota_us over
/// cpu.cfs_period_us) is under two CPUs. A spinning waiter would then hold
/// the CPU its answer needs, or spend the quota and get the cgroup
/// throttled for the rest of its period. Read once.
bool SpinAllowed();

/// The CPUs a process may use at once: `cpus` (its affinity mask's count)
/// capped by a quota given as cgroup v2 cpu.max text, "<quota> <period>"
/// in microseconds; "max <period>", v1's "-1 <period>" and unreadable
/// (empty) text mean no quota.
double UsableCpus(int cpus, const std::string& cpu_max);

/// One waiter's spin switch; not thread-safe, so one per waiting thread.
/// A wait spins only if the waiter's previous wait, spin included, ended
/// within kSpinBeforePark, and never where SpinAllowed() is false. A spin
/// that overruns the budget backs off: the waiter then needs 2, 4, … up
/// to kMaxShortWaits short waits in a row before it spins again, and a
/// spin that ends in time brings that back to one. So an idle server, a
/// sparse client or a millisecond-RTT origin parks at once and burns
/// nothing, a burst of short waits wastes at most one budget, at its end,
/// and a waiter whose spins keep failing seldom spins. Such a waiter's
/// peer is off the CPU while it spins: descheduled on an overcommitted
/// host, or behind a CPU-bound process that takes the whole time slice
/// the reactor's sched_yield() hands it. There a short parked wait would
/// re-arm the plain rule after every failed spin.
class SpinGate {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr uint32_t kMaxShortWaits = 1024;

  /// The time until which a wait that starts at `start` may poll before it
  /// parks: `start` itself when it must park at once.
  Clock::time_point SpinUntil(Clock::time_point start) const {
    return spins() ? start + kSpinBeforePark : start;
  }

  /// Records the wait that ran from `start` to `end`, spin included.
  void Finish(Clock::time_point start, Clock::time_point end) {
    const bool spun = spins();
    if (end - start > kSpinBeforePark) {
      short_waits_ = 0;
      if (spun) needed_ = std::min(2 * needed_, kMaxShortWaits);
      return;
    }
    if (spun) needed_ = 1;
    short_waits_ = std::min(short_waits_ + 1, needed_);
  }

 private:
  bool spins() const { return allowed_ && short_waits_ >= needed_; }

  bool allowed_ = SpinAllowed();
  uint32_t short_waits_ = 1;  // in a row within the budget, at most needed_
  uint32_t needed_ = 1;       // short waits in a row that a spin needs
};

/// Event bits for EventLoop::Add/Modify, mirroring EPOLLIN/EPOLLOUT without
/// leaking <sys/epoll.h> into every includer.
inline constexpr uint32_t kEventRead = 1u << 0;
inline constexpr uint32_t kEventWrite = 1u << 1;

/// A hashed timer wheel over a caller-supplied monotonic clock (seconds).
/// Not thread-safe — it lives inside one EventLoop and is exposed
/// separately only so the bucketing/cancellation logic is testable without
/// sockets. Callbacks fire from AdvanceTo() in deadline-bucket order.
///
/// Every pending timer sits in exactly one slot and is indexed by id, so a
/// cancelled timer leaves the wheel (callback included) the moment it is
/// cancelled: a reactor that arms and cancels a 5 s deadline per RPC pays
/// nothing later for the thousands of deadlines it has already cancelled.
class TimerWheel {
 public:
  static constexpr double kTickSeconds = 0.010;
  static constexpr size_t kSlots = 512;

  /// Schedules `cb` to fire once `now + delay_seconds` is reached. Returns
  /// a handle for Cancel(); handles are never reused.
  uint64_t Add(double now, double delay_seconds, std::function<void()> cb);

  /// Drops a pending timer and destroys its callback before returning.
  /// O(1): one index probe and a swap-remove from its slot. No-op for
  /// already-fired, already-cancelled or unknown handles.
  void Cancel(uint64_t id);

  /// Fires every timer whose deadline tick (the deadline rounded up to a
  /// tick boundary) is <= now's tick. Callbacks run once the wheel is
  /// consistent and may Add() or Cancel() freely; new timers become
  /// eligible on the next advance, and a timer already collected as due in
  /// this advance fires even if an earlier callback cancels it.
  void AdvanceTo(double now);

  /// Seconds until the earliest pending deadline (clamped to >= 0), or -1
  /// when no timers are pending. Walks the slots in tick order from where
  /// the previous walk stopped to the first tick that holds a timer due in
  /// it: at most one lap (kSlots slots plus the pending timers in them),
  /// and amortized O(1) when deadlines are armed in time order, as the
  /// per-RPC ones are. Cancelled timers are no longer in the wheel, so
  /// they cost nothing here.
  double NextDelay(double now) const;

  size_t pending() const { return index_.size(); }

 private:
  struct Entry {
    uint64_t id;
    uint64_t tick;  // absolute tick the timer fires on
    double deadline;
    std::function<void()> cb;
  };
  struct Position {
    size_t slot;
    size_t pos;  // index into slots_[slot]
  };

  std::vector<Entry> slots_[kSlots];
  std::unordered_map<uint64_t, Position> index_;  // every pending timer
  uint64_t next_id_ = 1;
  uint64_t swept_tick_ = 0;  // highest tick AdvanceTo has fully processed
  // No pending timer's tick is below this: Add lowers it, NextDelay's walk
  // raises it to where the walk stopped.
  mutable uint64_t scan_from_ = 0;
};

/// One reactor thread's worth of event dispatch. Create() can fail (fd
/// exhaustion), so construction goes through a factory.
class EventLoop {
 public:
  using IoHandler = std::function<void(uint32_t events)>;

  static Result<std::unique_ptr<EventLoop>> Create();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for the given kEvent bits. The handler is retained via
  /// shared_ptr, so a handler that removes itself (or another fd) while a
  /// dispatch batch is in flight stays alive until the batch finishes —
  /// stale events for removed fds are skipped, not delivered.
  Status Add(int fd, uint32_t events, IoHandler handler);
  /// Thread-safe, unlike Add and Remove: the caller keeps `fd` registered.
  /// `events` = 0 leaves only hangups and errors reported.
  Status Modify(int fd, uint32_t events);
  Status Remove(int fd);

  /// Runs `fn` on the loop thread. The only cross-thread entry point
  /// (besides Stop); safe to call from any thread, including the loop's.
  void Post(std::function<void()> fn);

  /// Schedules `cb` on the loop thread after `delay_seconds`. Loop-affine.
  uint64_t AddTimer(double delay_seconds, std::function<void()> cb);
  void CancelTimer(uint64_t id);

  /// Dispatches until Stop(). Must be called by exactly one thread, which
  /// becomes the loop thread. Each wait for events spins first when its
  /// SpinGate says so (see kSpinBeforePark).
  void Run();

  /// Signals Run() to return after the current iteration. Thread-safe.
  void Stop();

  bool in_loop_thread() const {
    return std::this_thread::get_id() ==
           loop_thread_.load(std::memory_order_relaxed);
  }

  /// Monotonic seconds on this loop's clock (steady_clock, epoch = Create).
  double NowSeconds() const;

 private:
  EventLoop(int epoll_fd, int wake_fd);

  void DrainWake();
  void RunPosted();

  int epoll_fd_;
  int wake_fd_;
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;
  TimerWheel timers_;
  SpinGate spin_;  // the loop thread's own
  std::atomic<bool> stopped_{false};
  // Atomic: other threads ask in_loop_thread() while Run() sets it.
  std::atomic<std::thread::id> loop_thread_{};
  std::chrono::steady_clock::time_point epoch_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace wnw::net
