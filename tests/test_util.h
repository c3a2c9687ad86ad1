// Shared fixtures/helpers for the walknotwait test suite.
#pragma once

#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "random/rng.h"
#include "util/status.h"

namespace wnw::testing {

/// A tiny fixed graph used across tests:
///
///      0 - 1
///      | \ |
///      3   2 - 4
///
/// Degrees: 0:3, 1:2, 2:3, 3:1, 4:1. Diameter 3 (3 <-> 4).
inline Graph MakeHouseGraph() {
  GraphBuilder b(5);
  for (auto [u, v] : std::initializer_list<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}}) {
    b.AddEdge(u, v);
  }
  return std::move(b).Build().value();
}

/// Deterministic small scale-free graph for statistical tests.
inline Graph MakeTestBA(NodeId n = 40, uint32_t m = 3, uint64_t seed = 7) {
  Rng rng(seed);
  return MakeBarabasiAlbert(n, m, rng).value();
}

/// Sum of a double vector.
inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Materializes an (arena-backed) neighbor span for gtest comparisons.
inline std::vector<NodeId> ToVec(std::span<const NodeId> s) {
  return std::vector<NodeId>(s.begin(), s.end());
}

// Caps this process's address space at its current size plus `headroom`
// bytes. Only ever called in a death-test child.
inline void CapAddressSpace(size_t headroom) {
  size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t cap =
      pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE)) + headroom;
  const rlimit limit{cap, cap};
  if (::setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
}

// The stack a std::thread maps for itself.
inline size_t DefaultThreadStack() {
  pthread_attr_t attr;
  size_t stack = 0;
  pthread_getattr_default_np(&attr);
  pthread_attr_getstacksize(&attr, &stack);
  pthread_attr_destroy(&attr);
  return stack;
}

// True in an ASan or TSan build. Their runtimes map bookkeeping of their own
// for every new thread and abort the process when that mapping fails, so a
// test that caps the address space must leave them room.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif

// Death-test body: prints `status` and exits 0 iff it is ResourceExhausted.
[[noreturn]] inline void ExitWithStatus(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::_Exit(status.code() == StatusCode::kResourceExhausted ? 0 : 1);
}

}  // namespace wnw::testing
