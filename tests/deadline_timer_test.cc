// DeadlineTimer: the one thread a sleeping origin's completions fire from.
// Order (deadline, then FIFO), never-early firing, re-arming from inside a
// callback, lazy thread start, and destruction that fires every pending
// callback exactly once — including when the last owner lets go of the
// timer from inside one of its own callbacks.
#include "access/deadline_timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_stats.h"

namespace wnw {
namespace {

using Clock = DeadlineTimer::Clock;
using std::chrono::milliseconds;

TEST(DeadlineTimerTest, FiresInDeadlineOrderAndNeverEarly) {
  DeadlineTimer timer;
  std::mutex mu;
  std::vector<int> order;
  std::vector<bool> on_time(3, false);
  std::promise<void> all_fired;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadlines[] = {start + milliseconds(30),
                                         start + milliseconds(10),
                                         start + milliseconds(20)};
  for (int i = 0; i < 3; ++i) {
    timer.At(deadlines[i], [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      on_time[i] = Clock::now() >= deadlines[i];
      order.push_back(i);
      if (order.size() == 3) all_fired.set_value();
    });
  }
  all_fired.get_future().wait();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(on_time, (std::vector<bool>{true, true, true}));
}

TEST(DeadlineTimerTest, EqualDeadlinesFireInSubmissionOrder) {
  DeadlineTimer timer;
  std::vector<int> order;  // written only by the timer thread
  std::promise<void> all_fired;
  const Clock::time_point due = Clock::now() + milliseconds(5);
  constexpr int kTimers = 200;
  for (int i = 0; i < kTimers; ++i) {
    timer.At(due, [&, i] {
      order.push_back(i);
      if (i == kTimers - 1) all_fired.set_value();
    });
  }
  all_fired.get_future().wait();
  ASSERT_EQ(order.size(), static_cast<size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) EXPECT_EQ(order[i], i);
}

TEST(DeadlineTimerTest, CallbackRearmsFromTheTimerThread) {
  DeadlineTimer timer;
  std::atomic<int> fired{0};
  std::promise<std::thread::id> done;
  std::thread::id first_thread;
  // Each callback schedules the next; the chain runs on the timer thread.
  std::function<void()> step = [&] {
    if (fired.fetch_add(1) == 0) first_thread = std::this_thread::get_id();
    if (fired.load() < 5) {
      timer.After(0.001, step);
    } else {
      done.set_value(std::this_thread::get_id());
    }
  };
  timer.After(0.001, step);
  const std::thread::id last_thread = done.get_future().get();
  EXPECT_EQ(fired.load(), 5);
  EXPECT_EQ(first_thread, last_thread);
  EXPECT_NE(last_thread, std::this_thread::get_id());
}

TEST(DeadlineTimerTest, ThreadStartsOnFirstUse) {
  // Sanitizer runtimes start a helper thread along with the process's
  // first thread; let that happen before taking the baseline.
  std::thread([] {}).join();
  const int before = CountProcessThreads();
  DeadlineTimer timer;
  EXPECT_EQ(CountProcessThreads(), before);  // constructing spawns nothing
  std::promise<void> fired;
  timer.After(0.0, [&] { fired.set_value(); });
  fired.get_future().wait();
  EXPECT_EQ(CountProcessThreads(), before + 1);
}

TEST(DeadlineTimerTest, DestructionFiresEveryPendingCallbackOnce) {
  constexpr int kTimers = 64;
  std::vector<std::atomic<int>> counts(kTimers);
  const Clock::time_point start = Clock::now();
  {
    DeadlineTimer timer;
    for (int i = 0; i < kTimers; ++i) {
      timer.At(start + milliseconds(5 + i % 20),
               [&counts, i] { counts[i].fetch_add(1); });
    }
    // Destroyed with every timer still pending.
  }
  EXPECT_GE(Clock::now() - start, milliseconds(24));  // waited them out
  for (int i = 0; i < kTimers; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(DeadlineTimerTest, LastOwnerReleasedInsideACallback) {
  auto timer = std::make_shared<DeadlineTimer>();
  std::promise<void> second_fired;
  // The first callback drops the last reference to the timer from the
  // timer's own thread: the destructor must not join itself, and the
  // timer still pending behind it must still fire.
  timer->After(0.001, [holder = timer]() mutable { holder.reset(); });
  timer->After(0.010, [&] { second_fired.set_value(); });
  timer.reset();
  EXPECT_EQ(second_fired.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
}

}  // namespace
}  // namespace wnw
