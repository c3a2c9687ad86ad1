// The block-scheduled walk engine: millions of logical walkers multiplexed
// over snapshot blocks by a handful of OS threads.
//
// RunWalkerPool (core/session.h) runs one OS thread and one full
// SamplingSession per walker — perfect isolation, but capped at 64 walkers
// and cache-hostile on disk-resident snapshots: concurrent walkers fault
// random pages all over the CSR. The engine inverts the loop, the classic
// DrunkardMob move: instead of each walker pulling its next neighbor list
// from wherever it happens to stand, walkers are bucketed by the BLOCK of
// their frontier node and every walker pending on the scheduled block is
// stepped while that block's adjacency pages are hot. A walker is a
// resumable record (engine/walker_program.h): either the registry's own
// Sampler, drawn once per resume, or — for flat `walk` runs — a 96-byte
// record stepped once per resume. Walker count is a memory knob, not a
// thread count.
//
// The defining invariant, enforced by tests/engine_test.cc and the
// bench/ablation_block_engine CI gate:
//
//   For every registered sampler, RunWalkEngine emits byte-identical
//   samples to RunWalkerPool under the same seed — for any block size, any
//   scheduler order, any thread count — and identical per-walker logical
//   query costs when no shared QueryCache is attached. (With a shared
//   cache, which walker pays for a node first is scheduling-dependent in
//   the pool too; samples stay identical.)
//
// This holds because walker w's randomness is the pool's exact seeding
// chain (session seed Mix64(seed ^ (0x3a1c0000 + w)) -> sampler seed /
// start draw), walkers never share RNG or estimator state, and
// deterministic backends answer the same in any order. Non-deterministic
// backends (kRandomSubset) are rejected: their server-side randomness is
// consumed in request order, which the engine deliberately changes.
//
// Spec form (wnw_sample routes these here; SamplingSession::Open rejects
// them): "walk:srw?steps=8&engine=block&walkers=1000000&block=4096".
// Out-of-core paging over a snapshot-served graph rides the same spec:
// "...&snapshot=g.snap&residency_mb=64&prefetch=2" keeps the sweep's
// resident adjacency under 64 MiB while prefetching the next two scheduled
// blocks (storage/residency.h) — advisory paging that can never change the
// samples.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/session.h"
#include "engine/block_scheduler.h"
#include "engine/walker_program.h"

namespace wnw {

struct EngineOptions {
  /// Logical walkers (>= 1; also spec key walkers=). Not capped at the
  /// pool's 64 — walker state is memory, not threads.
  uint64_t walkers = 64;
  uint64_t samples_per_walker = 1;

  /// Nodes per scheduling block (also spec key block=). 0 derives
  /// max(256, num_nodes / 64) — enough blocks that scheduling is real,
  /// large enough that a block's adjacency span amortizes a page fault.
  uint32_t block_nodes = 0;

  /// Block pick policy + starvation bound (tests drive adversarial orders
  /// through this; outputs must not change).
  BlockScheduler::Options schedule;

  /// Worker OS threads (0 = DefaultThreadCount, honors WNW_THREADS).
  int threads = 0;

  /// Live walkers materialized at once. Session-mode walkers carry a real
  /// AccessInterface (O(num_nodes) seen-bitmap each) and Sampler, so
  /// residency is bounded and cohorts run back to back — walkers are
  /// independent, so cohort boundaries cannot change outputs. 0 derives:
  /// all walkers in flat mode (96-byte records), 1024 in session mode.
  uint64_t cohort = 0;

  /// Resident-byte budget for adjacency paging of a snapshot-served graph
  /// (spec key residency_mb=, in MiB). When > 0 and the serving CSR is an
  /// mmap'd snapshot, a storage::ResidencyManager prefetches upcoming
  /// blocks (madvise(MADV_WILLNEED) + page touch on a background thread)
  /// and drops cold ones (MADV_DONTNEED) to keep charged residency under
  /// the budget. Purely advisory paging — samples and costs stay
  /// byte-identical to an unbudgeted run. 0 = off; silently inert for
  /// heap-built graphs (MADV_DONTNEED would destroy anonymous memory).
  uint64_t residency_budget_bytes = 0;

  /// Scheduler picks to prefetch ahead of the block being stepped (spec
  /// key prefetch=; only meaningful with a residency budget). 0 keeps the
  /// budget but takes every fault inline on the stepping thread — the
  /// no-prefetch baseline the oocore bench gates against.
  int prefetch_depth = 2;

  /// Global budget of walker resumes (design steps in flat mode, draws in
  /// session mode); 0 = unlimited. When exhausted the engine stops promptly
  /// and cleanly (EngineResult::stopped_early), leaving emitted-so-far
  /// samples valid — the mid-run shutdown path.
  uint64_t max_steps = 0;

  /// Shared-resource template, same contract as WalkerPoolOptions::session:
  /// backend/cache/executor resolve once and are shared by all walkers.
  SessionOptions session;
};

struct EngineWalkerStats {
  uint64_t query_cost = 0;     // distinct nodes (the paper's metric)
  uint64_t total_queries = 0;  // all logical neighbor-list queries
  uint32_t emitted = 0;        // samples produced (== samples_per_walker
                               // unless stopped early)
};

struct EngineResult {
  /// Samples, walker-major: walker w's draws at [w * samples_per_walker,
  /// w * samples_per_walker + walker_stats[w].emitted).
  std::vector<NodeId> samples;
  uint64_t samples_per_walker = 0;
  std::vector<EngineWalkerStats> walker_stats;

  /// Aggregate telemetry (sums over walkers; engine_* fields filled).
  SessionStats stats;

  /// True when max_steps cut the run short.
  bool stopped_early = false;

  std::span<const NodeId> SamplesFor(size_t walker) const {
    return std::span<const NodeId>(
        samples.data() + walker * samples_per_walker,
        walker_stats[walker].emitted);
  }
};

/// Runs the engine to completion (or its step budget). Spec keys engine=
/// (must be "block"), walkers=, block=, residency_mb=, prefetch= override
/// the matching options. First error from any walker aborts the run and
/// comes back as that Status.
Result<EngineResult> RunWalkEngine(const Graph* graph,
                                   const SamplerConfig& config,
                                   EngineOptions options = {});
Result<EngineResult> RunWalkEngine(const Graph* graph, std::string_view spec,
                                   EngineOptions options = {});

}  // namespace wnw
