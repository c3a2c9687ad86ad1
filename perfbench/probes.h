// Process-level probes for the benchmark: peak resident memory over a
// phase, live OS threads, and nearest-rank statistics.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/// Resets the kernel's peak-RSS high-water mark (VmHWM) to the current RSS,
/// so PeakRssBytes() afterwards covers only what follows. Returns false
/// where /proc/self/clear_refs is not writable; the peak is then the
/// process lifetime's.
bool ResetPeakRss();

/// VmHWM of this process in bytes (0 where unavailable).
uint64_t PeakRssBytes();

/// VmRSS of this process in bytes (0 where unavailable).
uint64_t CurrentRssBytes();

/// CPUs this process may run on (sched_getaffinity), what `nproc` prints.
int AvailableCpus();

/// Samples the number of live OS threads of the process every few
/// milliseconds (util/thread_stats.h) on a thread of its own, which it
/// leaves out of the count, and keeps the peak.
class ThreadWatch {
 public:
  ThreadWatch();
  ~ThreadWatch();
  ThreadWatch(const ThreadWatch&) = delete;
  ThreadWatch& operator=(const ThreadWatch&) = delete;

  int peak_live() const { return peak_live_.load(); }

 private:
  void Sample();

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_live_{0};
  std::thread thread_;
};

/// Nearest-rank percentile (p in (0, 1]) of `values`; 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Median of `values`, the mean of the middle two for an even count; 0 for
/// an empty input.
double Median(std::vector<double> values);

}  // namespace perfbench
