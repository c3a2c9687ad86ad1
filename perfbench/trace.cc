#include "trace.h"

#include <cinttypes>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDraw:
      return "draw";
    case SpanKind::kPrepare:
      return "core.prepare";
    case SpanKind::kForward:
      return "core.forward";
    case SpanKind::kEstimate:
      return "core.estimate";
    case SpanKind::kAccept:
      return "core.accept";
    case SpanKind::kBackendFetch:
      return "access.backend.fetch";
    case SpanKind::kBackendBatch:
      return "access.backend.batch";
    case SpanKind::kServerFetch:
      return "net.server.fetch";
    case SpanKind::kServerBatch:
      return "net.server.batch";
  }
  return "?";
}

bool Tracer::WriteTsv(std::FILE* out) const {
  for (const Span& s : spans_) {
    if (std::fprintf(out, "%" PRIu32 "\t%" PRIu32 "\t%" PRIu32 "\t%s\t%" PRId64
                          "\t%" PRId64 "\n",
                     s.id, s.parent, s.draw, SpanName(s.kind), s.start_ns,
                     s.end_ns) < 0) {
      return false;
    }
  }
  return true;
}

template <typename Fn>
auto TracingBackend::Traced(SpanKind client, SpanKind server, Fn&& fn) {
  if (side_ == Side::kClient) {
    ScopedSpan span(tracer_, client);
    return fn();
  }
  if (!enabled_.load(std::memory_order_acquire)) return fn();
  Span span;
  span.kind = server;
  span.start_ns = NowNs();
  auto result = fn();
  span.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<uint32_t>(server_spans_.size() + 1);
  server_spans_.push_back(span);
  return result;
}

wnw::Result<wnw::FetchReply> TracingBackend::FetchNeighbors(wnw::NodeId u) {
  return Traced(SpanKind::kBackendFetch, SpanKind::kServerFetch,
                [&] { return inner_->FetchNeighbors(u); });
}

wnw::Result<wnw::BatchReply> TracingBackend::FetchBatch(
    std::span<const wnw::NodeId> nodes) {
  return Traced(SpanKind::kBackendBatch, SpanKind::kServerBatch,
                [&] { return inner_->FetchBatch(nodes); });
}

std::vector<Span> TracingBackend::TakeServerSpans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.swap(server_spans_);
  return out;
}

}  // namespace perfbench
