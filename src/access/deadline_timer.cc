#include "access/deadline_timer.h"

#include <sys/prctl.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/thread.h"

namespace wnw {

struct DeadlineTimer::State {
  struct Entry {
    Clock::time_point deadline;
    uint64_t seq = 0;  // FIFO among equal deadlines
    std::function<void()> fn;
  };
  // std::push_heap keeps the largest element first; "larger" here means
  // earlier, so the front is the next timer due.
  static bool Later(const Entry& a, const Entry& b) {
    return a.deadline != b.deadline ? a.deadline > b.deadline : a.seq > b.seq;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Entry> heap;  // guarded by mu
  uint64_t next_seq = 0;
  bool stopping = false;
};

DeadlineTimer::DeadlineTimer() : state_(std::make_shared<State>()) {}

DeadlineTimer::~DeadlineTimer() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stopping = true;
  }
  state_->cv.notify_one();
  if (!thread_.joinable()) return;
  if (thread_.get_id() == std::this_thread::get_id()) {
    thread_.detach();  // Run holds its own reference to the state
  } else {
    thread_.join();
  }
}

Status DeadlineTimer::At(Clock::time_point deadline,
                         std::function<void()> fn) {
  bool earliest = false;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!thread_.joinable()) {
      WNW_ASSIGN_OR_RETURN(
          thread_,
          StartThread("deadline timer: cannot start its thread",
                      [state = state_] { Run(state); }));
    }
    state_->heap.push_back({deadline, state_->next_seq++, std::move(fn)});
    std::push_heap(state_->heap.begin(), state_->heap.end(), State::Later);
    earliest = state_->heap.front().seq == state_->next_seq - 1;
  }
  // Only a new earliest deadline shortens the thread's current wait.
  if (earliest) state_->cv.notify_one();
  return Status::OK();
}

Status DeadlineTimer::After(double seconds, std::function<void()> fn) {
  return At(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds)),
            std::move(fn));
}

void DeadlineTimer::Run(std::shared_ptr<State> state) {
  // Best effort: the kernel's default 50 us timer slack would make each
  // firing up to that late, 5% of a 1 ms simulated sleep.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  std::unique_lock<std::mutex> lock(state->mu);
  for (;;) {
    if (state->heap.empty()) {
      if (state->stopping) return;
      state->cv.wait(lock);
      continue;
    }
    const Clock::time_point due = state->heap.front().deadline;
    if (Clock::now() < due) {
      state->cv.wait_until(lock, due);
      continue;
    }
    std::pop_heap(state->heap.begin(), state->heap.end(), State::Later);
    std::function<void()> fn = std::move(state->heap.back().fn);
    state->heap.pop_back();
    lock.unlock();
    fn();
    fn = nullptr;  // captured state is released outside the lock too
    lock.lock();
  }
}

}  // namespace wnw
