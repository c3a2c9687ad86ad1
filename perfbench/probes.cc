#include "probes.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/thread_stats.h"

namespace perfbench {
namespace {

// Reads a "Key:   123 kB" line of /proc/self/status, in bytes.
uint64_t StatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return 0;
  char line[256];
  const size_t key_len = std::strlen(key);
  uint64_t bytes = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      bytes = std::strtoull(line + key_len + 1, nullptr, 10) * 1024;
      break;
    }
  }
  std::fclose(f);
  return bytes;
}

}  // namespace

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "we");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

uint64_t PeakRssBytes() { return StatusKb("VmHWM"); }

uint64_t CurrentRssBytes() { return StatusKb("VmRSS"); }

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return CPU_COUNT(&set);
}

ThreadWatch::ThreadWatch() {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Sample();
  });
}

ThreadWatch::~ThreadWatch() {
  stop_.store(true);
  thread_.join();
}

void ThreadWatch::Sample() {
  const int live = wnw::CountProcessThreads() - 1;  // minus this watcher
  if (live > peak_live_.load()) peak_live_.store(live);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace perfbench
