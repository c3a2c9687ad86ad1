#include "engine/walk_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "access/snapshot_backend.h"
#include "core/spec_keys.h"
#include "storage/residency.h"
#include "util/check.h"
#include "util/huge_page_arena.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/thread.h"
#include "util/timer.h"

namespace wnw {

namespace {

/// Folds the physical-access half of a CostMeter (what actually hit the
/// backend) into an aggregate; the logical half (unique/total queries) is
/// summed per walker instead.
void FoldPhysical(const CostMeter& from, CostMeter* into) {
  into->backend_fetches += from.backend_fetches;
  into->shared_cache_hits += from.shared_cache_hits;
  into->prefetch_batches += from.prefetch_batches;
  into->waited_seconds += from.waited_seconds;
  for (size_t s = 0; s < from.shard_fetches.size(); ++s) {
    into->BillShard(static_cast<int32_t>(s), from.shard_fetches[s],
                    from.shard_stall_seconds[s]);
  }
}

/// Sums over harvested walkers. Each worker keeps its own while it
/// harvests its slice and folds it into the run's once.
struct Tally {
  uint64_t query_cost = 0;
  uint64_t total_queries = 0;
  uint64_t samples_drawn = 0;
  CostMeter physical;  // session mode's sessions, then flat mode's workers

  void Add(const Tally& other) {
    query_cost += other.query_cost;
    total_queries += other.total_queries;
    samples_drawn += other.samples_drawn;
    FoldPhysical(other.physical, &physical);
  }
};

/// A worker's walkers bound for other blocks, one list per destination
/// block. Only the blocks staged into since the last Clear() have a list: an
/// open-addressed table maps each to its list, so a worker's staging memory
/// follows the blocks its drains touch, not the number of blocks.
class Staging {
 public:
  void Add(size_t block, uint32_t walker) {
    lists_[SlotOf(static_cast<uint32_t>(block))].push_back(walker);
  }

  /// The blocks staged into, in first-touch order, and their lists.
  size_t size() const { return blocks_.size(); }
  size_t block(size_t slot) const { return blocks_[slot]; }
  std::vector<uint32_t>& list(size_t slot) { return lists_[slot]; }

  /// Forgets every block. The lists, emptied by the flush, keep their
  /// buffers for the blocks the next drain touches.
  void Clear() {
    blocks_.clear();
    if (++generation_ == 0) {  // wrapped: stale entries would look live
      std::fill(table_.begin(), table_.end(), Entry{});
      generation_ = 1;
    }
  }

 private:
  // An entry is live only in the generation that wrote it, so Clear() is an
  // increment, not a sweep of the table.
  struct Entry {
    uint32_t generation = 0;
    uint32_t block = 0;
    uint32_t slot = 0;
  };

  // Fibonacci hashing: the top bits of the product spread neighbouring
  // block ids over the table.
  size_t Home(uint32_t block) const {
    return static_cast<size_t>((uint64_t{block} * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  size_t SlotOf(uint32_t block) {
    const size_t mask = table_.size() - 1;
    size_t pos = Home(block);
    for (; table_[pos].generation == generation_; pos = (pos + 1) & mask) {
      if (table_[pos].block == block) return table_[pos].slot;
    }
    const auto slot = static_cast<uint32_t>(blocks_.size());
    blocks_.push_back(block);
    if (lists_.size() == slot) lists_.emplace_back();
    if (2 * blocks_.size() > table_.size()) {
      Rehash(2 * table_.size());  // at most half full, this block included
    } else {
      table_[pos] = {generation_, block, slot};
    }
    return slot;
  }

  void Rehash(size_t size) {
    table_.assign(size, Entry{});
    shift_ = 64 - std::countr_zero(size);
    for (uint32_t slot = 0; slot < blocks_.size(); ++slot) {
      size_t pos = Home(blocks_[slot]);
      while (table_[pos].generation == generation_) {
        pos = (pos + 1) & (size - 1);
      }
      table_[pos] = {generation_, blocks_[slot], slot};
    }
  }

  std::vector<uint32_t> blocks_;
  std::vector<std::vector<uint32_t>> lists_;  // lists_[slot]
  std::vector<Entry> table_ = std::vector<Entry>(16);
  int shift_ = 60;  // 64 - log2(table_.size())
  uint32_t generation_ = 1;
};

/// One engine run. Each cohort's workers do all of its per-walker work:
/// each sets up a contiguous slice of the walkers, steps whatever blocks the
/// scheduler hands it, then harvests its own slice. All scheduling state is
/// guarded by mu_; between set-up and harvest a walker is exclusively owned
/// by exactly one bucket or one worker's drain list, so Resume() needs no
/// per-walker locking.
class EngineRun {
 public:
  EngineRun(const Graph* graph, const EngineOptions& options,
            const SessionOptions& shared, const WalkerProgram& program,
            const ProgramContext& context, EngineResult* result)
      : options_(options),
        shared_(shared),
        program_(program),
        result_(result),
        num_nodes_(graph->num_nodes()),
        samples_per_walker_(options.samples_per_walker) {
    block_nodes_ = options.block_nodes != 0
                       ? options.block_nodes
                       : std::max<uint32_t>(
                             256, static_cast<uint32_t>(num_nodes_ / 64));
    num_blocks_ =
        (static_cast<size_t>(num_nodes_) + block_nodes_ - 1) / block_nodes_;
    threads_ = options.threads > 0 ? options.threads : DefaultThreadCount();
    cohort_ = options.cohort != 0 ? options.cohort
                                  : (program.flat() ? options.walkers
                                                    : uint64_t{1024});
    cohort_ = std::min(std::max<uint64_t>(cohort_, 1), options.walkers);
    const auto* memory =
        dynamic_cast<const InMemoryBackend*>(context.backend.get());
    const auto* snapshot =
        dynamic_cast<const SnapshotBackend*>(context.backend.get());
    if (program.flat()) {
      const int scanners =
          static_cast<int>(std::min<uint64_t>(threads_, cohort_));
      // Bare in-memory or snapshot origin with no executor: workers scan
      // the CSR arena (heap or mmap'd) directly (FlatScan::direct),
      // skipping the per-fetch reply object and session-cache map an
      // AccessInterface pays for every step. Decorated stacks (latency,
      // rate limit) keep the interface so their simulated billing accrues.
      if ((memory != nullptr || snapshot != nullptr) &&
          context.executor == nullptr) {
        direct_graph_ =
            memory != nullptr ? &memory->graph() : &snapshot->graph();
        worker_meters_.resize(static_cast<size_t>(scanners));
      } else {
        worker_access_.reserve(static_cast<size_t>(scanners));
        for (int i = 0; i < scanners; ++i) {
          worker_access_.push_back(std::make_unique<AccessInterface>(
              context.backend, context.query_cache, context.executor));
        }
      }
    }
    // Residency-managed paging: only with an explicit budget, and only when
    // the served adjacency really is a read-only file mapping —
    // MADV_DONTNEED on a heap CSR would zero live data, so heap-built
    // graphs stay unmanaged (and byte-identical either way, since paging
    // advice cannot change what the scans read).
    const Graph* serving =
        snapshot != nullptr ? &snapshot->graph() : direct_graph_;
    if (options.residency_budget_bytes > 0 && serving != nullptr &&
        serving->storage_mapped()) {
      storage::ResidencyManager::Options residency;
      residency.budget_bytes = options.residency_budget_bytes;
      residency_ = std::make_unique<storage::ResidencyManager>(
          storage::BuildBlockSpans(serving->offsets(),
                                   std::as_bytes(serving->adjacency()),
                                   sizeof(NodeId), block_nodes_),
          residency);
      prefetch_depth_ =
          static_cast<size_t>(std::max(0, options.prefetch_depth));
    }
  }

  Status Run() {
    // One record array serves every cohort. Each record is constructed in
    // place when its walker is set up, so the array is never
    // value-initialised first.
    Result<HugePageArena> records =
        HugePageArena::Map(cohort_ * sizeof(EngineWalker));
    if (!records.ok()) {
      return Status::ResourceExhausted(
          "walk engine: cannot allocate the records of " +
          std::to_string(cohort_) + " walkers (" +
          records.status().message() + ")");
    }
    records_ = std::move(records).value();
    walkers_ = static_cast<EngineWalker*>(records_.data());
    if (residency_ != nullptr) {
      WNW_RETURN_IF_ERROR(residency_->StartPrefetcher());
    }
    // Peak resident-set telemetry: a low-rate /proc/self/statm probe while
    // cohorts step (plus one sample on each side), so engine_resident_peak
    // reports measured memory, not a proxy. Zero where statm is missing.
    // The probe waits on a condition variable, so stopping it does not wait
    // out its interval.
    resident_peak_ =
        std::max(resident_peak_, storage::ProcessResidentBytes());
    std::mutex sampler_mu;
    std::condition_variable sampler_cv;
    bool sampling = true;
    WNW_ASSIGN_OR_RETURN(
        std::thread sampler,
        StartThread("walk engine: cannot start its resident-set sampler",
                    [&] {
                      std::unique_lock<std::mutex> lock(sampler_mu);
                      do {
                        lock.unlock();
                        resident_peak_ = std::max(
                            resident_peak_, storage::ProcessResidentBytes());
                        lock.lock();
                      } while (!sampler_cv.wait_for(
                          lock, std::chrono::milliseconds(5),
                          [&] { return !sampling; }));
                    }));
    Status status = Status::OK();
    for (uint64_t first = 0; first < options_.walkers; first += cohort_) {
      if (stop_.load(std::memory_order_relaxed)) break;
      const uint64_t count = std::min(cohort_, options_.walkers - first);
      status = RunCohort(first, count);
      if (!status.ok()) break;
    }
    {
      std::lock_guard<std::mutex> lock(sampler_mu);
      sampling = false;
    }
    sampler_cv.notify_one();
    sampler.join();
    resident_peak_ =
        std::max(resident_peak_, storage::ProcessResidentBytes());
    WNW_RETURN_IF_ERROR(status);
    for (const auto& access : worker_access_) {
      FoldPhysical(access->meter(), &totals_.physical);
    }
    for (const CostMeter& meter : worker_meters_) {
      FoldPhysical(meter, &totals_.physical);
    }
    return Status::OK();
  }

  /// Sums over every harvested walker, with the physical fetches of every
  /// session and worker.
  const Tally& totals() const { return totals_; }
  uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }
  uint64_t block_switches() const { return block_switches_; }
  uint64_t bytes_scanned() const { return bytes_scanned_; }
  uint64_t resident_peak() const { return resident_peak_; }
  const storage::ResidencyManager* residency() const {
    return residency_.get();
  }
  double stepping_seconds() const { return stepping_seconds_; }
  size_t num_blocks() const { return num_blocks_; }
  bool stopped_early() const {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr size_t kPrefetchAhead = 16;

  size_t BlockOf(NodeId u) const { return u / block_nodes_; }

  // Runs walkers [first, first + count) on min(threads, count) workers, the
  // calling thread alone when that is one.
  Status RunCohort(uint64_t first, uint64_t count) {
    try {
      if (!program_.flat()) sessions_.resize(count);
      buckets_.assign(num_blocks_, {});
      scheduler_ = std::make_unique<BlockScheduler>(num_blocks_,
                                                    options_.schedule);
    } catch (const std::bad_alloc&) {
      return Status::ResourceExhausted(
          "walk engine: out of memory setting up " + std::to_string(count) +
          " walkers");
    }
    first_ = first;
    cohort_samples_ = result_->samples.data() + first * samples_per_walker_;
    const int threads =
        static_cast<int>(std::min<uint64_t>(threads_, count));
    live_ = count;
    error_ = Status::OK();
    participants_ = threads;
    set_up_ = 0;
    drained_ = 0;
    // Worker t's slice: walkers [count * t / threads, count * (t+1) / threads).
    const auto slice = [count, threads](int t) {
      return count * static_cast<uint64_t>(t) / static_cast<uint64_t>(threads);
    };
    if (threads <= 1) {
      Worker(0, 0, count);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        Result<std::thread> worker = StartThread(
            "walk engine: cannot start worker thread " + std::to_string(t),
            [this, t, begin = slice(t), end = slice(t + 1)] {
              Worker(t, begin, end);
            });
        if (!worker.ok()) {
          // The workers already started meet without the rest, step
          // nothing and destroy what they set up; the cohort then fails
          // with this error.
          std::lock_guard<std::mutex> lock(mu_);
          participants_ = t;
          Fail(worker.status());
          break;
        }
        pool.push_back(std::move(worker).value());
      }
      for (std::thread& t : pool) t.join();
    }
    // Stepping-phase clock, from the set-up barrier to the last drain:
    // set-up and harvest are O(walkers) work the engine pays once, not
    // part of the multiplexing rate the steps-per-second telemetry reports.
    if (error_.ok()) {
      stepping_seconds_ +=
          std::chrono::duration<double>(drained_at_ - set_up_at_).count();
    }
    block_switches_ += scheduler_->acquires();
    sessions_.clear();
    return error_;
  }

  // One worker of a cohort: sets up walkers [begin, end), steps, then
  // harvests the same slice. It meets the others after set-up, so the
  // scheduler sees every walker before the first Acquire, and after its
  // last drain, so no walker of its slice is still being stepped — and it
  // does both whether or not anything failed, so an error cannot leave the
  // others waiting.
  void Worker(int id, uint64_t begin, uint64_t end) {
    Staging staging;
    uint64_t built = 0;
    Guard(id, "setting up", [&] {
      const Status status = SetUpSlice(begin, end, &built, &staging);
      std::lock_guard<std::mutex> lock(mu_);
      if (status.ok()) {
        Flush(&staging);
      } else {
        Fail(status);
      }
    });
    Meet(&set_up_, &set_up_at_);
    Guard(id, "stepping", [&] { DrainBlocks(id, &staging); });
    const bool ok = Meet(&drained_, &drained_at_);
    Harvest(id, begin, begin + built, ok);
  }

  // Runs one phase of a worker. Running out of memory there (records'
  // sessions, staging lists, the buckets a flush grows) fails the cohort
  // like any other worker error instead of escaping the thread.
  template <typename Phase>
  void Guard(int id, const char* what, Phase&& phase) {
    try {
      phase();
    } catch (const std::bad_alloc&) {
      std::lock_guard<std::mutex> lock(mu_);
      Fail(Status::ResourceExhausted("walk engine: worker " +
                                     std::to_string(id) +
                                     " ran out of memory " + what +
                                     " walkers"));
    }
  }

  // Records the cohort's first error and wakes every waiting worker.
  // Called under mu_.
  void Fail(const Status& status) {
    if (error_.ok()) error_ = status;
    cv_.notify_all();
  }

  // Waits until every worker of the cohort has arrived (`arrived` counts
  // them); the last to arrive stamps `at`. Returns whether the cohort is
  // still free of errors.
  bool Meet(int* arrived, Clock::time_point* at) {
    std::unique_lock<std::mutex> lock(mu_);
    if (++*arrived == participants_) {
      *at = Clock::now();
      cv_.notify_all();
    }
    cv_.wait(lock, [&] { return *arrived >= participants_; });
    return error_.ok();
  }

  // Constructs walkers [begin, end) in place and stages each by its start
  // block. `*built` counts the records constructed, which the harvest
  // destroys whatever happens next.
  Status SetUpSlice(uint64_t begin, uint64_t end, uint64_t* built,
                    Staging* staging) {
    for (uint64_t i = begin; i < end; ++i) {
      // The pool's exact seeding chain: walker g opens a session seeded
      // Mix64(shared.seed ^ (0x3a1c0000 + g)), which draws the sampler seed
      // and then (when no start was pinned) the start node.
      const uint64_t g = first_ + i;
      const uint64_t session_seed =
          Mix64(shared_.seed ^ (uint64_t{0x3a1c0000u} + g));
      RngCore chain(Mix64(session_seed));
      const uint64_t sampler_seed = chain.Next();
      const NodeId start =
          shared_.start.has_value()
              ? *shared_.start
              : static_cast<NodeId>(chain.NextBounded(num_nodes_));
      std::construct_at(walkers_ + i, start, sampler_seed);
      ++*built;
      WNW_RETURN_IF_ERROR(program_.Init(
          start, sampler_seed, sessions_.empty() ? nullptr : &sessions_[i]));
      staging->Add(BlockOf(start), static_cast<uint32_t>(i));
    }
    return Status::OK();
  }

  // Writes the stats of walkers [begin, end) when the cohort succeeded and
  // destroys their records and sessions, in index order; the slice's sums
  // fold into the run's once.
  void Harvest(int id, uint64_t begin, uint64_t end, bool keep) {
    uint64_t i = begin;
    Guard(id, "harvesting", [&] {
      Tally tally;
      for (; i < end; ++i) {
        if (keep) Collect(i, &tally);
        Destroy(i);
      }
      std::lock_guard<std::mutex> lock(mu_);
      totals_.Add(tally);
    });
    for (; i < end; ++i) Destroy(i);  // what a failed Collect left
  }

  void Collect(uint64_t i, Tally* tally) {
    const EngineWalker& w = walkers_[i];
    EngineWalkerStats& s = result_->walker_stats[first_ + i];
    if (!sessions_.empty()) {
      const CostMeter& meter = sessions_[i].access->meter();
      s.query_cost = meter.unique_cost;
      s.total_queries = meter.total_queries;
      FoldPhysical(meter, &tally->physical);
    } else {
      s.query_cost = w.meter.unique_cost();
      s.total_queries = w.meter.total_queries();
    }
    s.emitted = w.emitted;
    tally->query_cost += s.query_cost;
    tally->total_queries += s.total_queries;
    tally->samples_drawn += s.emitted;
  }

  // Collect BEFORE the walker's session dies: the access destructor folds
  // still-pending prefetch batches (billing them), and the pool reads a
  // walker's Stats() before its session closes too — cost identity depends
  // on sampling the meter at the same point.
  void Destroy(uint64_t i) {
    if (!sessions_.empty()) {
      sessions_[i].sampler.reset();  // points into the access
      sessions_[i].access.reset();
    }
    std::destroy_at(walkers_ + i);
  }

  // Moves a worker's staged walkers into their blocks' buckets and credits
  // the scheduler: one range insert and one Add per destination block, not
  // per-walker work. Called under mu_.
  void Flush(Staging* staging) {
    for (size_t s = 0; s < staging->size(); ++s) {
      std::vector<uint32_t>& list = staging->list(s);
      std::vector<uint32_t>& bucket = buckets_[staging->block(s)];
      const uint64_t arrivals = list.size();
      if (bucket.empty()) {
        bucket.swap(list);  // the list keeps the old buffer for reuse
      } else {
        bucket.insert(bucket.end(), list.begin(), list.end());
        list.clear();
      }
      scheduler_->Add(staging->block(s), arrivals);
    }
    staging->Clear();
  }

  // Steps walkers a block at a time until none is live, the step budget
  // runs out or some worker fails.
  void DrainBlocks(int id, Staging* staging) {
    FlatScan scan;
    if (program_.flat()) {
      if (direct_graph_ != nullptr) {
        scan.direct = direct_graph_;
        scan.physical = &worker_meters_[static_cast<size_t>(id)];
      } else {
        scan.access = worker_access_[static_cast<size_t>(id)].get();
      }
    }
    // With no step budget the global counter is flushed once per drained
    // block instead of per step — max_steps promptness is the only consumer
    // that needs the per-step atomic.
    const bool exact_steps = options_.max_steps != 0;
    uint64_t local_steps = 0;
    std::vector<uint32_t> drain;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      size_t b = BlockScheduler::kNone;
      for (;;) {
        if (live_ == 0 || !error_.ok() ||
            stop_.load(std::memory_order_relaxed)) {
          bytes_scanned_ += scan.bytes_scanned;
          return;
        }
        b = scheduler_->Acquire();
        if (b != BlockScheduler::kNone) break;
        // Nothing pending, but peers still hold live walkers that may move
        // into fresh blocks (or finish everything).
        cv_.wait(lock);
      }
      if (residency_ != nullptr) {
        // Pin the block being stepped (eviction-proof until the drain
        // flushes), then start paging in what the scheduler says comes
        // next — the WILLNEED + page-touch runs on the manager's thread
        // while this worker steps hot pages.
        residency_->Pin(b);
        for (const size_t ahead : scheduler_->PeekUpcoming(prefetch_depth_)) {
          residency_->Prefetch(ahead);
        }
      }
      drain.swap(buckets_[b]);  // take ownership of the block's walkers
      lock.unlock();

      size_t moved = 0;
      size_t finished = 0;
      Status err;
      bool interrupted = false;
      for (size_t i = 0; i < drain.size(); ++i) {
        // The drain list IS the future access order, and at a million
        // walkers each record is a guaranteed DRAM miss — prefetch a few
        // walkers ahead so its lines arrive before Resume touches them.
        // A 96-byte record on a 32-byte boundary spans exactly two lines:
        // the one holding its first byte and the one holding its last.
        if (i + kPrefetchAhead < drain.size()) {
          const char* ahead = reinterpret_cast<const char*>(
              &walkers_[drain[i + kPrefetchAhead]]);
          __builtin_prefetch(ahead);
          __builtin_prefetch(ahead + sizeof(EngineWalker) - 1);
        }
        // Stage two, half the distance behind: that walker's record is in
        // cache by now, so chase its pointers — the spilled distinct-node
        // set its meter will binary-search, if it has one, and the CSR
        // offsets its fetch will read.
        if (i + kPrefetchAhead / 2 < drain.size()) {
          const EngineWalker& fw = walkers_[drain[i + kPrefetchAhead / 2]];
          if (const NodeId* spilled = fw.meter.spilled()) {
            __builtin_prefetch(spilled);
          }
          if (direct_graph_ != nullptr && fw.node < num_nodes_) {
            __builtin_prefetch(&direct_graph_->offsets()[fw.node]);
          }
        }
        // Stage three: the offsets line landed, so the CSR row's start is
        // now a cheap read — prefetch the adjacency arena lines the walker's
        // fetch will actually scan.
        if (direct_graph_ != nullptr &&
            i + kPrefetchAhead / 4 < drain.size()) {
          const EngineWalker& fw = walkers_[drain[i + kPrefetchAhead / 4]];
          if (fw.node < num_nodes_) {
            const char* row = reinterpret_cast<const char*>(
                direct_graph_->adjacency().data() +
                direct_graph_->offsets()[fw.node]);
            __builtin_prefetch(row);
            __builtin_prefetch(row + 64);
          }
        }
        const uint32_t idx = drain[i];
        EngineWalker& w = walkers_[idx];
        // Step this walker for as long as its frontier stays in the block —
        // the whole point: every step here hits adjacency pages that are
        // already hot.
        for (;;) {
          if (stop_.load(std::memory_order_relaxed)) {
            interrupted = true;
            break;
          }
          Result<ResumeOutcome> outcome = program_.Resume(
              w, sessions_.empty() ? nullptr : &sessions_[idx], &scan);
          if (exact_steps) {
            const uint64_t done =
                steps_.fetch_add(1, std::memory_order_relaxed) + 1;
            if (done >= options_.max_steps) {
              stop_.store(true, std::memory_order_relaxed);
            }
          } else {
            ++local_steps;
          }
          if (!outcome.ok()) {
            err = outcome.status();
            break;
          }
          if (*outcome == ResumeOutcome::kEmit) {
            cohort_samples_[idx * samples_per_walker_ + w.emitted] = w.node;
            if (++w.emitted == samples_per_walker_) {
              ++finished;
              break;
            }
          }
          const size_t nb = BlockOf(w.node);
          if (nb != b) {
            // Grouped by destination block for the flush.
            staging->Add(nb, idx);
            ++moved;
            break;
          }
        }
        if (!err.ok() || interrupted) break;
      }
      drain.clear();
      if (local_steps != 0) {
        steps_.fetch_add(local_steps, std::memory_order_relaxed);
        local_steps = 0;
      }
      if (residency_ != nullptr) residency_->Unpin(b);

      lock.lock();
      Flush(staging);
      live_ -= finished;
      if (!err.ok() && error_.ok()) error_ = err;
      if (moved != 0 || live_ == 0 || !error_.ok() ||
          stop_.load(std::memory_order_relaxed)) {
        cv_.notify_all();
      }
    }
  }

  const EngineOptions& options_;
  const SessionOptions& shared_;
  const WalkerProgram& program_;
  EngineResult* result_;

  NodeId num_nodes_;
  uint64_t samples_per_walker_;
  uint32_t block_nodes_ = 1;
  size_t num_blocks_ = 1;
  int threads_ = 1;
  uint64_t cohort_ = 1;

  // Flat mode: either a direct CSR view (bare in-memory origin; per-worker
  // CostMeters bill the arena reads) or one scan interface per worker
  // thread. Walkers bill their own WalkerMeter in both shapes; these only
  // carry physical-fetch telemetry.
  const Graph* direct_graph_ = nullptr;
  std::vector<CostMeter> worker_meters_;
  std::vector<std::unique_ptr<AccessInterface>> worker_access_;

  // Out-of-core paging (null when no budget or the graph is heap-built).
  std::unique_ptr<storage::ResidencyManager> residency_;
  size_t prefetch_depth_ = 0;

  // The cohort's walker records, indexed from the cohort's first walker
  // (walker first_ + i is record i). Each walker's samples go to
  // cohort_samples_[index * samples_per_walker_ ...]; session mode keeps
  // its per-walker sessions beside the records.
  HugePageArena records_;
  EngineWalker* walkers_ = nullptr;
  uint64_t first_ = 0;
  NodeId* cohort_samples_ = nullptr;
  std::vector<WalkerSession> sessions_;

  // Cohort state, guarded by mu_ (walker records themselves are touched
  // only by the worker currently holding them).
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::vector<uint32_t>> buckets_;  // walker indices per block
  std::unique_ptr<BlockScheduler> scheduler_;
  size_t live_ = 0;
  Status error_;
  int participants_ = 0;  // workers started; Meet() waits for all of them
  int set_up_ = 0;        // workers past set-up
  int drained_ = 0;       // workers past their last drain
  Clock::time_point set_up_at_;
  Clock::time_point drained_at_;
  uint64_t bytes_scanned_ = 0;  // each worker's FlatScan folds in on exit
  Tally totals_;

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> steps_{0};
  uint64_t block_switches_ = 0;
  uint64_t resident_peak_ = 0;
  double stepping_seconds_ = 0.0;
};

}  // namespace

Result<EngineResult> RunWalkEngine(const Graph* graph,
                                   const SamplerConfig& config,
                                   EngineOptions options) {
  if (graph == nullptr || graph->num_nodes() == 0) {
    return Status::InvalidArgument("walk engine needs a non-empty graph");
  }
  SamplerConfig stripped = config;
  WNW_RETURN_IF_ERROR(ApplyEngineKeys(&stripped, &options).status());
  if (options.walkers < 1 || options.walkers > (uint64_t{1} << 30)) {
    return Status::InvalidArgument("walkers must be in [1, 2^30]");
  }
  if (options.samples_per_walker < 1 ||
      options.samples_per_walker > (uint64_t{1} << 20)) {
    return Status::InvalidArgument(
        "samples_per_walker must be in [1, 2^20]");
  }
  if (options.schedule.aging_rounds < 1) {
    return Status::InvalidArgument("schedule.aging_rounds must be >= 1");
  }

  // Same shared-resource resolution as Open/RunWalkerPool — ONE backend
  // stack, one optional cache, one optional executor for every walker.
  SessionOptions shared = options.session;
  WNW_RETURN_IF_ERROR(ResolveSessionResources(graph, &stripped, &shared));
  if (!shared.backend->deterministic()) {
    return Status::InvalidArgument(
        "the block engine reorders requests across walkers, which would "
        "change a non-deterministic backend's responses (restriction=random "
        "k-subset) — run that scenario on RunWalkerPool instead");
  }
  if (shared.start.has_value() && *shared.start >= graph->num_nodes()) {
    return Status::OutOfRange(
        "start node " + std::to_string(*shared.start) +
        " outside graph with " + std::to_string(graph->num_nodes()) +
        " nodes");
  }

  WNW_ASSIGN_OR_RETURN(
      std::unique_ptr<TransitionDesign> design,
      ParseTransitionDesign(stripped.walk, graph, shared.backend->options()));

  // Flat mode needs replicable per-walker logical billing: unrestricted
  // views (no bidirectional probe cascades) and no shared cache (whether a
  // node bills as hit or fetch would depend on cross-walker order).
  const bool allow_flat =
      shared.backend->options().restriction == NeighborRestriction::kNone &&
      shared.query_cache == nullptr;
  ProgramContext context{shared.backend, shared.query_cache,
                         shared.executor};
  WNW_ASSIGN_OR_RETURN(
      std::unique_ptr<WalkerProgram> program,
      CompileWalkerProgram(stripped, design.get(), context, allow_flat));

  const uint64_t total_samples = options.walkers * options.samples_per_walker;
  if (total_samples > (uint64_t{1} << 31)) {
    return Status::ResourceExhausted(
        "walkers * samples_per_walker = " + std::to_string(total_samples) +
        " exceeds the 2^31 sample-buffer cap");
  }
  EngineResult result;
  result.samples_per_walker = options.samples_per_walker;
  try {
    result.samples.assign(static_cast<size_t>(total_samples), kInvalidNode);
    result.walker_stats.resize(options.walkers);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "walk engine: cannot allocate " + std::to_string(total_samples) +
        " sample slots and the stats of " + std::to_string(options.walkers) +
        " walkers");
  }

  Timer timer;
  EngineRun run(graph, options, shared, *program, context, &result);
  WNW_RETURN_IF_ERROR(run.Run());
  const double elapsed = timer.ElapsedSeconds();

  result.stopped_early = run.stopped_early();

  SessionStats& stats = result.stats;
  stats.spec = config.ToSpec();
  stats.sampler = StrFormat("block-engine(%s)",
                            std::string(program->name()).c_str());
  const Tally& totals = run.totals();
  stats.query_cost = totals.query_cost;
  stats.total_queries = totals.total_queries;
  stats.samples_drawn = totals.samples_drawn;
  stats.elapsed_seconds = elapsed;
  FillBackendStats(*shared.backend, shared.query_cache.get(),
                   shared.executor.get(), totals.physical, &stats);

  stats.engine_walkers = options.walkers;
  stats.engine_blocks = run.num_blocks();
  stats.engine_block_switches = run.block_switches();
  stats.engine_steps = run.steps();
  // Rate of the stepping phase only, timed from the set-up barrier to the
  // last drain: set-up and harvest are O(walkers) one-time work (the pool's
  // 64 sessions pay nothing comparable), so folding them in would report a
  // rate that depends on walk length rather than step cost.
  const double stepping = run.stepping_seconds();
  stats.engine_steps_per_sec =
      stepping > 0.0 ? static_cast<double>(run.steps()) / stepping : 0.0;
  stats.engine_bytes_scanned = run.bytes_scanned();
  stats.engine_resident_peak = run.resident_peak();
  if (const storage::ResidencyManager* residency = run.residency()) {
    const storage::ResidencyManager::Stats rstats = residency->stats();
    stats.engine_residency_budget = residency->budget_bytes();
    stats.engine_residency_peak_bytes = rstats.peak_charged;
    stats.engine_residency_prefetches = rstats.prefetches;
    stats.engine_residency_releases = rstats.releases + rstats.cancels;
  }

  // Same warm-start behavior as a closing session: a file-bound cache
  // writes this run's history back.
  if (shared.query_cache != nullptr) {
    const Status persisted = shared.query_cache->Persist();
    if (!persisted.ok()) {
      WNW_LOG(kWarning) << "query-cache persist failed: "
                        << persisted.ToString();
    }
  }
  return result;
}

Result<EngineResult> RunWalkEngine(const Graph* graph, std::string_view spec,
                                   EngineOptions options) {
  WNW_ASSIGN_OR_RETURN(SamplerConfig config, SamplerConfig::Parse(spec));
  return RunWalkEngine(graph, config, std::move(options));
}

}  // namespace wnw
