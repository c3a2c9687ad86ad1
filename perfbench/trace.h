// In-memory span tracing for the benchmark. Spans are recorded only from
// the benchmark's own code: around the calls it makes into the library's
// public entry points, and inside an AccessBackend decorator it slips under
// a session (client side) or under a WnwServer (server side). Nothing here
// reaches inside the library.
//
// A span is (id, parent, draw, kind, start, end). Spans of one draw share
// the draw id; parents come from a per-tracer stack, so a backend span
// opened while a core.estimate span is open is that span's child. Self time
// is a span's duration minus its children's, which is exact here because
// every tracer belongs to one thread and children never overlap.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "access/backend.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kDraw,          // one Draw() (or one engine call), the root
  kPrepare,       // core: ProbabilityEstimator::Prepare (initial crawl)
  kForward,       // core: Walk + RecordForwardWalk
  kEstimate,      // core: ProbabilityEstimator::Estimate
  kAccept,        // core: StationaryWeight + RejectionSampler::Accept
  kBackendFetch,  // access: one AccessBackend::FetchNeighbors
  kBackendBatch,  // access: one AccessBackend::FetchBatch
  kServerFetch,   // net: the server's origin answering one FetchNeighbors
  kServerBatch,   // net: the server's origin answering one FetchBatch
};

const char* SpanName(SpanKind kind);

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint32_t draw = 0;    // 0 = outside any draw
  SpanKind kind = SpanKind::kDraw;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Records the spans of one thread. Begin/End nest like a stack.
class Tracer {
 public:
  void Begin(SpanKind kind) {
    Span span;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.draw = kind == SpanKind::kDraw ? ++draws_ : draws_in_open();
    span.kind = kind;
    open_.push_back(spans_.size());
    spans_.push_back(span);
    spans_.back().start_ns = NowNs();
  }

  void End() {
    const int64_t now = NowNs();
    spans_[open_.back()].end_ns = now;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one tab-separated line:
  /// id parent draw name start_ns end_ns.
  bool WriteTsv(std::FILE* out) const;

 private:
  uint32_t draws_in_open() const {
    return open_.empty() ? 0 : spans_[open_.front()].draw;
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of open spans, outermost first
  uint32_t draws_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    tracer_->Begin(kind);
  }
  ~ScopedSpan() { tracer_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Records a span around every fetch that passes through it, then forwards
/// to the wrapped backend unchanged. On the client side it sits directly
/// under the session's AccessInterface (spans kBackendFetch/kBackendBatch,
/// recorded into the caller's tracer). On the server side it sits under
/// WnwServer (kServerFetch/kServerBatch); the reactor thread records into
/// a tracer of its own, guarded by a mutex so the benchmark can read it
/// between passes, and only while enabled.
class TracingBackend final : public wnw::AccessBackend {
 public:
  enum class Side { kClient, kServer };

  TracingBackend(std::shared_ptr<wnw::AccessBackend> inner, Side side,
                 Tracer* tracer)
      : inner_(std::move(inner)),
        side_(side),
        tracer_(tracer),
        name_("trace(" + std::string(inner_->name()) + ")") {}

  std::string_view name() const override { return name_; }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const wnw::AccessOptions& options() const override {
    return inner_->options();
  }
  const wnw::ShardedBackend* AsSharded() const override {
    return inner_->AsSharded();
  }
  const wnw::RemoteBackend* AsRemote() const override {
    return inner_->AsRemote();
  }
  bool may_block() const override { return inner_->may_block(); }
  void ResetSimulation() override { inner_->ResetSimulation(); }

  wnw::Result<wnw::FetchReply> FetchNeighbors(wnw::NodeId u) override;
  wnw::Result<wnw::BatchReply> FetchBatch(
      std::span<const wnw::NodeId> nodes) override;

  /// Server side only: spans are recorded while enabled.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }

  /// Server side only: moves the recorded spans out (thread-safe).
  std::vector<Span> TakeServerSpans();

 private:
  template <typename Fn>
  auto Traced(SpanKind client, SpanKind server, Fn&& fn);

  std::shared_ptr<wnw::AccessBackend> inner_;
  Side side_;
  Tracer* tracer_;  // client side: the calling thread's tracer
  std::string name_;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> server_spans_;  // guarded by mu_
};

}  // namespace perfbench
