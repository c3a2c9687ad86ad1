// Walker programs: what one engine walker does each time the block engine
// resumes it, so millions of logical walkers can be multiplexed over a
// handful of OS threads.
//
// The contract that everything here is written against:
//
//   For every registered sampler and every walker, the sequence of emitted
//   samples — and the per-walker logical costs (query_cost, total_queries)
//   when no shared QueryCache is attached — are byte-identical to
//   RunWalkerPool with the same seed, REGARDLESS of block visit order,
//   because walkers never share randomness and deterministic backends
//   answer identically in any order.
//
// Two programs keep that promise at different scales:
//
//  - SamplerProgram (every registered sampler; `walk` too under
//    restrictions, a shared cache or an externally registered design): the
//    walker owns a real AccessInterface and the registry's own Sampler,
//    built with exactly the arguments SamplingSession::Open would pass pool
//    walker g. Resume() calls Draw() once and emits the result — the engine
//    runs the reference code, so identity holds by construction, at the
//    cost of an O(num_nodes) seen-bitmap per live walker (the engine bounds
//    residency with cohorts).
//  - FlatWalkProgram (the `walk` sampler against an unrestricted
//    deterministic backend with no shared cache): per-walker state shrinks
//    to one 96-byte EngineWalker record (frontier, xoshiro state and a
//    WalkerMeter whose distinct-node set is inline for a short walk); the
//    four built-in transition designs are replicated step-for-step (same RNG
//    call order, same logical billing) against a per-WORKER scan interface,
//    and Resume() advances one design step. This is what makes one million
//    walkers on a disk-resident snapshot feasible.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "access/access_interface.h"
#include "core/registry.h"
#include "mcmc/transition.h"
#include "random/rng.h"
#include "util/status.h"

namespace wnw {

/// The per-worker fetch channel flat programs scan through. Two shapes:
///
///  - `access` (general): a worker-owned AccessInterface over the shared
///    stack — needed whenever the stack carries decorators (latency, rate
///    limit) or an async executor whose billing must accrue.
///  - `direct` (fast path): when the stack is the bare in-memory origin —
///    flat mode already guarantees unrestricted + deterministic +
///    cache-free, so the only remaining question is decorators — neighbor
///    lists come straight off the CSR arena with one counter bump, skipping
///    the per-fetch reply object and session-cache map entirely. This is
///    what keeps a million multiplexed walkers ahead of the 64-thread pool
///    on per-step cost.
///
/// Logical identity is unaffected either way: per-walker query_cost /
/// total_queries live in the WalkerMeter, and both shapes return the same
/// deterministic neighbor lists. Adjacency bytes read are summed per worker
/// here; the total does not depend on which worker stepped which walker.
struct FlatScan {
  AccessInterface* access = nullptr;  // decorated stacks
  const Graph* direct = nullptr;      // bare in-memory origin
  CostMeter* physical = nullptr;      // bills direct arena reads
  uint64_t bytes_scanned = 0;         // adjacency bytes this worker read

  std::span<const NodeId> Neighbors(NodeId u) {
    std::span<const NodeId> list;
    if (direct != nullptr) {
      ++physical->backend_fetches;
      list = direct->Neighbors(u);
    } else {
      list = access->Neighbors(u);
    }
    bytes_scanned += list.size_bytes();
    return list;
  }
};

/// Flat-mode logical accounting: replicates exactly what a private
/// AccessInterface would have billed this walker (one logical query per
/// neighbor-list access, distinct-node cost on first touch) without the
/// O(num_nodes) seen-bitmap. The distinct-node set lives in the walker
/// record: up to kInline nodes sit in an inline array, scanned linearly,
/// which covers a short walk with no heap at all. The first node past that
/// moves the whole set to a sorted heap array that reuses the inline bytes
/// for its pointer, so a long walk bills through one binary search per
/// fetch, as a sorted vector would, in a record no larger than one.
class WalkerMeter {
 public:
  /// The `walk` sampler's default steps per draw: srw, lazy and maxdeg
  /// fetch at most one node per design step, so a one-draw walk of the
  /// default length never spills (mhrw also fetches its proposals, and a
  /// walker drawing several samples spills after its first).
  static constexpr uint32_t kInline = 8;

  WalkerMeter() = default;
  WalkerMeter(WalkerMeter&& other) noexcept
      : total_queries_(other.total_queries_),
        size_(other.size_),
        capacity_(other.capacity_),
        set_(other.set_) {
    other.size_ = 0;
    other.capacity_ = 0;
  }
  WalkerMeter& operator=(WalkerMeter&& other) noexcept {
    if (this != &other) {
      if (capacity_ != 0) delete[] set_.heap;
      total_queries_ = other.total_queries_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      set_ = other.set_;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }
  ~WalkerMeter() {
    if (capacity_ != 0) delete[] set_.heap;
  }

  /// One logical neighbor-list query for u served through `scan` (the
  /// worker's fetch channel; physical-fetch telemetry accrues there).
  std::span<const NodeId> Fetch(FlatScan& scan, NodeId u) {
    ++total_queries_;
    const std::span<const NodeId> list = scan.Neighbors(u);
    Touch(u);
    return list;
  }

  uint64_t total_queries() const { return total_queries_; }
  /// Distinct nodes queried: the paper's cost unit.
  uint64_t unique_cost() const { return size_; }
  /// The heap array once the set has spilled; null while it is inline.
  const NodeId* spilled() const {
    return capacity_ == 0 ? nullptr : set_.heap;
  }

 private:
  void Touch(NodeId u) {
    if (capacity_ == 0) {
      for (uint32_t i = 0; i < size_; ++i) {
        if (set_.inline_nodes[i] == u) return;
      }
      if (size_ < kInline) {
        set_.inline_nodes[size_++] = u;
        return;
      }
      Regrow(2 * kInline);
      std::sort(set_.heap, set_.heap + size_);
    }
    NodeId* at = std::lower_bound(set_.heap, set_.heap + size_, u);
    if (at != set_.heap + size_ && *at == u) return;
    if (size_ == capacity_) {
      const ptrdiff_t index = at - set_.heap;
      Regrow(2 * capacity_);
      at = set_.heap + index;
    }
    std::copy_backward(at, set_.heap + size_, set_.heap + size_ + 1);
    *at = u;
    ++size_;
  }

  // Moves the set (inline or heap) to a heap array of `capacity` nodes.
  void Regrow(uint32_t capacity) {
    NodeId* heap = new NodeId[capacity];
    const NodeId* from = capacity_ == 0 ? set_.inline_nodes : set_.heap;
    std::copy(from, from + size_, heap);
    if (capacity_ != 0) delete[] set_.heap;
    set_.heap = heap;
    capacity_ = capacity;
  }

  uint64_t total_queries_ = 0;
  uint32_t size_ = 0;      // distinct nodes touched
  uint32_t capacity_ = 0;  // 0 while the set is inline
  union {
    NodeId inline_nodes[kInline];  // capacity_ == 0: unsorted
    NodeId* heap;                  // otherwise: sorted, capacity_ slots
  } set_;
};

/// Session-mode baggage: what a SamplingSession would own, one set per live
/// walker, kept beside the cohort's records (flat mode allocates none).
/// `sampler` points into `access`, so it is declared (and destroyed) after
/// it.
struct WalkerSession {
  std::unique_ptr<AccessInterface> access;
  std::unique_ptr<Sampler> sampler;
};

/// One logical walker's record: everything a flat walker reads or writes per
/// step, in 96 bytes. The engine keeps a cohort's records in one array on a
/// 32-byte boundary, so each spans exactly two cache lines. It derives the
/// walker's sample slots and target from the walker's index and writes each
/// emitted sample itself; the start node is not kept.
struct alignas(32) EngineWalker {
  EngineWalker(NodeId start, uint64_t seed) : node(start), rng(seed) {}

  NodeId node;           // frontier: the block scheduler keys on this
  uint32_t emitted = 0;  // samples produced so far
  uint32_t aux = 0;      // flat mode: design steps into the draw
  uint32_t spare = 0;    // pads the header to 16 bytes
  RngCore rng;           // flat mode only
  WalkerMeter meter;     // flat mode only
};
static_assert(sizeof(WalkerMeter) == 48);
static_assert(sizeof(EngineWalker) == 96,
              "a walker record spans exactly two cache lines");

enum class ResumeOutcome {
  kContinue,  // walker still mid-draw; re-bucket by node
  kEmit,      // walker finished a draw: its sample is `node`
};

/// A sampler in resumable form. Stateless and shared by all walkers and
/// workers; all mutable state lives in the EngineWalker (and, in session
/// mode, its WalkerSession).
class WalkerProgram {
 public:
  virtual ~WalkerProgram() = default;

  virtual std::string_view name() const = 0;

  /// True when walkers run without a per-walker AccessInterface (the record
  /// only; fetches go through the per-worker scan interface).
  virtual bool flat() const { return false; }

  /// Called once the engine has constructed a walker's record at `start`,
  /// its randomness seeded from `seed` (the sampler seed pool walker g's
  /// session would draw). Session programs build `*session` from the same
  /// start and seed; flat programs get session == nullptr, and the record
  /// is all they need.
  virtual Status Init(NodeId /*start*/, uint64_t /*seed*/,
                      WalkerSession* /*session*/) const {
    return Status::OK();
  }

  /// Advances the walker: one design step in flat mode, one Draw() in
  /// session mode. `scan` is the calling worker's fetch channel; only flat
  /// programs use it (session programs bill session->access and may
  /// receive scan = nullptr).
  virtual Result<ResumeOutcome> Resume(EngineWalker& w, WalkerSession* session,
                                       FlatScan* scan) const = 0;
};

/// Shared resources the session program hands to per-walker access
/// sessions; all resolved by ResolveSessionResources before compilation.
struct ProgramContext {
  std::shared_ptr<AccessBackend> backend;
  std::shared_ptr<QueryCache> query_cache;  // may be null
  std::shared_ptr<CompletionExecutor> executor;  // may be null
};

/// Builds the walker program for `config` (reserved/engine keys already
/// peeled) against `design`, validating config.params through the registry
/// factory — so the engine accepts and rejects exactly the specs a session
/// does, with the same Status. `allow_flat` gates the flat `walk` fast path
/// — the caller asserts the backend is deterministic, unrestricted, and
/// cache-free, which is what makes per-walker logical billing replicable.
Result<std::unique_ptr<WalkerProgram>> CompileWalkerProgram(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool allow_flat);

}  // namespace wnw
