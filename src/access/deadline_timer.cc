#include "access/deadline_timer.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

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

void DeadlineTimer::At(Clock::time_point deadline, std::function<void()> fn) {
  bool earliest = false;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->heap.push_back({deadline, state_->next_seq++, std::move(fn)});
    std::push_heap(state_->heap.begin(), state_->heap.end(), State::Later);
    earliest = state_->heap.front().seq == state_->next_seq - 1;
    if (!thread_.joinable()) thread_ = std::thread(Run, state_);
  }
  // Only a new earliest deadline shortens the thread's current wait.
  if (earliest) state_->cv.notify_one();
}

void DeadlineTimer::After(double seconds, std::function<void()> fn) {
  At(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)),
     std::move(fn));
}

void DeadlineTimer::Run(std::shared_ptr<State> state) {
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
