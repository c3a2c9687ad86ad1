// Peak live OS threads over one phase of a bench, sampled from
// CountProcessThreads() by a background poller that leaves itself out of
// the count. The sleeping ablations gate on it: a wider window or more
// shards may not cost more threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/thread_stats.h"

namespace wnw {

class ThreadPeakPoller {
 public:
  ThreadPeakPoller() : thread_([this] { Poll(); }) {}
  ~ThreadPeakPoller() { Stop(); }
  ThreadPeakPoller(const ThreadPeakPoller&) = delete;
  ThreadPeakPoller& operator=(const ThreadPeakPoller&) = delete;

  /// Stops polling and returns the peak seen.
  int Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return peak_.load();
  }

 private:
  void Poll() {
    while (!stop_.load()) {
      peak_.store(std::max(peak_.load(), CountProcessThreads() - 1));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;  // declared last: starts once the counters exist
};

}  // namespace wnw
