// A deadline timer for simulated service waits: a sleeping origin
// (LatencyConfig::sleep_scale > 0) hands its completion here instead of
// parking the serving thread, so a whole in-flight window of sleeping
// requests costs one timer thread, not one thread per request. Synchronous
// fetches of a sleeping stack complete from here too: the caller waits on
// the completion the timer fires.
//
// Callbacks run on one thread, started on the first At() call (so
// accounting-only users never spawn it), in deadline order and FIFO among
// equal deadlines, never before their deadline. A min-heap plus
// condition_variable::wait_until, on a thread with no timer slack, keeps
// the firing precise: the millisecond sleeps the ablations run would be
// stretched many times over by a coarse tick (net::TimerWheel rounds to
// 10 ms).
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "util/status.h"

namespace wnw {

class DeadlineTimer {
 public:
  using Clock = std::chrono::steady_clock;

  DeadlineTimer();

  /// Fires every pending callback at its deadline, then stops the thread:
  /// no callback is ever dropped. Joins the thread, or detaches it when the
  /// last owner is released from inside a callback (the thread then drains
  /// and exits on its own).
  ~DeadlineTimer();

  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// Schedules `fn` to run on the timer thread once `deadline` has passed.
  /// Thread-safe, and callable from inside a callback (re-arming). `fn`
  /// runs outside the timer's lock. ResourceExhausted, with `fn` dropped
  /// unrun, when the timer thread cannot be started.
  Status At(Clock::time_point deadline, std::function<void()> fn);

  /// At(now + seconds).
  Status After(double seconds, std::function<void()> fn);

 private:
  struct State;
  static void Run(std::shared_ptr<State> state);

  std::shared_ptr<State> state_;  // shared with the thread
  std::thread thread_;            // started by the first At()
};

}  // namespace wnw
