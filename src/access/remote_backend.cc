#include "access/remote_backend.h"

#include <arpa/inet.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "net/wire.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread.h"

namespace wnw {

namespace {

using net::DecodedFrame;
using net::Frame;
using net::Opcode;

bool TransientCode(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

Result<sockaddr_in> ParseAddress(const std::string& addr) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return Status::InvalidArgument("remote address '" + addr +
                                   "' is not host:port");
  }
  std::string host = addr.substr(0, colon);
  if (host == "localhost") host = "127.0.0.1";
  uint64_t port = 0;
  for (size_t i = colon + 1; i < addr.size(); ++i) {
    const char c = addr[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("remote address '" + addr +
                                     "' has a non-numeric port");
    }
    port = port * 10 + static_cast<uint64_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("remote address '" + addr +
                                     "' port is above 65535");
    }
  }
  sockaddr_in peer{};
  peer.sin_family = AF_INET;
  peer.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &peer.sin_addr) != 1) {
    return Status::InvalidArgument("remote host '" + host +
                                   "' is not a dotted IPv4 address");
  }
  return peer;
}

Result<FetchReply> DecodeFetchReply(std::span<const std::byte> payload) {
  WNW_ASSIGN_OR_RETURN(net::NeighborsReply decoded,
                       net::DecodeNeighborsReply(payload));
  FetchReply reply;
  reply.SetOwned(std::move(decoded.neighbors));
  reply.simulated_seconds = decoded.simulated_seconds;
  reply.serial_seconds = decoded.serial_seconds;
  reply.shard = decoded.shard;
  return reply;
}

// A reply frame's status: an error frame's payload is the server's message.
Status ReplyStatus(const DecodedFrame& frame) {
  if (frame.status == StatusCode::kOk) return Status::OK();
  return Status::FromCode(
      frame.status,
      std::string(reinterpret_cast<const char*>(frame.payload.data()),
                  frame.payload.size()));
}

// The spin switch of the blocking round trips this thread makes.
thread_local net::SpinGate caller_spin;

}  // namespace

/// One RPC across its attempts. Attempts never overlap: the next one is
/// started by the completion of the previous, so once the first attempt is
/// registered every field but the immutable opcode and payload is touched
/// by the loop thread only.
struct RemoteBackend::Rpc {
  uint16_t opcode = 0;
  std::vector<std::byte> payload;
  int attempt = 0;
  uint64_t timer_id = 0;  // the current attempt's deadline
  /// Fires once, on the loop thread. `reply` views the connection's input
  /// buffer and is only valid during the call.
  std::function<void(Status, std::span<const std::byte> reply)> done;
};

/// One pool connection. `mu` guards what submitting threads share with the
/// loop thread: they read `up`, append request frames to `out` and register
/// their RPC in `pending`. The critical sections are buffer appends and map
/// operations, never a syscall.
///
/// `io_mu` owns the socket of an up connection: its holder alone sends,
/// receives, and touches `in`, `flushing`, `flush_pos` and `want_write`.
/// The loop only try_locks it, around every read and write, so it never
/// blocks on it. A blocking caller holds it for one round trip on an idle
/// connection (CallerRoundTrip), which needs `pending` empty. The loop
/// resets an up connection without `io_mu` only while an RPC is pending
/// on it (a caller's failed round trip, handed over) or at destruction,
/// so the two never overlap. Everything else — connect state, `fd` — is
/// written by the loop thread only.
struct RemoteBackend::Conn {
  std::mutex mu;
  bool up = false;  // connected: set by FinishConnect, cleared by KillConn
  std::vector<std::byte> out;  // staging: frames not yet handed to flush
  std::unordered_map<uint64_t, std::shared_ptr<Rpc>> pending;

  std::mutex io_mu;
  int fd = -1;  // -1 = down
  bool connecting = false;  // fd's non-blocking connect has not finished
  uint64_t connect_timer = 0;
  std::vector<std::byte> in;
  // FlushConn moves `out` into `flushing` with one swap under `mu`, then
  // sends from `flushing` with no lock held: a caller appending to `out`
  // meanwhile may reallocate *that* vector, but never the bytes in flight.
  std::vector<std::byte> flushing;
  size_t flush_pos = 0;
  bool want_write = false;  // EPOLLOUT interest currently registered
};

RemoteBackend::RemoteBackend(std::string addr, const sockaddr_in& peer,
                             RemoteBackendOptions options)
    : addr_(std::move(addr)),
      peer_(peer),
      name_("remote(" + addr_ + ")"),
      options_(options) {}

Result<std::shared_ptr<RemoteBackend>> RemoteBackend::Connect(
    const std::string& addr, RemoteBackendOptions options) {
  WNW_ASSIGN_OR_RETURN(const sockaddr_in peer, ParseAddress(addr));
  if (options.connections < 1 || options.connections > 64) {
    return Status::InvalidArgument("remote connections must be in [1, 64]");
  }
  if (options.deadline_ms <= 0.0 || options.retry_backoff_ms < 0.0 ||
      options.connect_timeout_ms <= 0.0) {
    return Status::InvalidArgument(
        "remote deadline_ms / connect_timeout_ms must be > 0 and "
        "rpc_backoff_ms >= 0");
  }
  if (options.max_retries < 0 || options.max_retries > 100) {
    return Status::InvalidArgument("remote rpc_retries must be in [0, 100]");
  }
  std::shared_ptr<RemoteBackend> backend(
      new RemoteBackend(addr, peer, options));
  WNW_ASSIGN_OR_RETURN(backend->loop_, net::EventLoop::Create());
  for (int i = 0; i < options.connections; ++i) {
    backend->conns_.push_back(std::make_unique<Conn>());
  }
  net::EventLoop* loop = backend->loop_.get();
  WNW_ASSIGN_OR_RETURN(
      backend->loop_thread_,
      StartThread("remote backend: cannot start its event loop thread",
                  [loop] { loop->Run(); }));
  WNW_RETURN_IF_ERROR(backend->Handshake());
  return backend;
}

RemoteBackend::~RemoteBackend() {
  destroyed_.store(true, std::memory_order_release);
  if (loop_thread_.joinable()) {
    // Close the sockets and fail whatever is still in flight, then stop.
    // Sessions own the backend via shared_ptr, so no *new* call can race
    // destruction; the loop's final drain runs this post before Run returns.
    loop_->Post([this] {
      for (auto& conn : conns_) {
        KillConn(conn.get(),
                 Status::Unavailable("remote backend destroyed"));
      }
    });
    loop_->Stop();
    loop_thread_.join();
  }
}

Result<std::vector<std::byte>> RemoteBackend::RoundTrip(
    uint16_t opcode, std::vector<std::byte> payload) {
  WNW_DCHECK(!loop_->in_loop_thread());
  // The caller's latch rides in the RPC record, which the loop thread holds
  // while it runs `done`. So `done` may notify after releasing the lock:
  // the waiter can wake and return, but the condition variable lives on.
  struct Waiter : Rpc {
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    Status status = Status::OK();
    std::vector<std::byte> reply;
  };
  auto waiter = std::make_shared<Waiter>();
  waiter->opcode = opcode;
  waiter->payload = std::move(payload);
  waiter->done = [w = waiter.get()](Status status,
                                    std::span<const std::byte> reply) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->finished = true;
      w->status = std::move(status);
      w->reply.assign(reply.begin(), reply.end());
    }
    w->cv.notify_one();
  };
  if (CallerRoundTrip(CallerConn(), waiter, &waiter->reply)) {
    return std::move(waiter->reply);
  }
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->finished; });
  WNW_RETURN_IF_ERROR(waiter->status);
  return std::move(waiter->reply);
}

Status RemoteBackend::Handshake() {
  WNW_ASSIGN_OR_RETURN(const std::vector<std::byte> reply,
                       RoundTrip(static_cast<uint16_t>(Opcode::kStats), {}));
  WNW_ASSIGN_OR_RETURN(const net::StatsReply stats,
                       net::DecodeStatsReply(reply));
  if (stats.num_nodes == 0) {
    return Status::InvalidArgument("remote server '" + addr_ +
                                   "' reports an empty graph");
  }
  num_nodes_ = stats.num_nodes;
  access_.restriction = static_cast<NeighborRestriction>(stats.restriction);
  access_.max_neighbors = stats.max_neighbors;
  access_.bidirectional_check = stats.bidirectional != 0;
  access_.seed = stats.server_seed;
  origin_shards_ = static_cast<int>(stats.shards);
  origin_name_ = stats.origin;
  return Status::OK();
}

Result<FetchReply> RemoteBackend::FetchNeighbors(NodeId u) {
  std::vector<std::byte> payload;
  net::EncodeFetchRequest(u, &payload);
  WNW_ASSIGN_OR_RETURN(
      const std::vector<std::byte> reply,
      RoundTrip(static_cast<uint16_t>(Opcode::kFetchNeighbors),
                std::move(payload)));
  return DecodeFetchReply(reply);
}

Result<BatchReply> RemoteBackend::FetchBatch(std::span<const NodeId> nodes) {
  // One frame per batch; the 64 MiB payload cap bounds the request size
  // far above any crawl frontier.
  if (nodes.size() > (net::kMaxPayloadBytes - 64) / sizeof(NodeId)) {
    return Status::InvalidArgument(
        "remote batch of " + std::to_string(nodes.size()) +
        " nodes exceeds the wire frame limit");
  }
  std::vector<std::byte> payload;
  net::EncodeBatchRequest(nodes, &payload);
  WNW_ASSIGN_OR_RETURN(
      const std::vector<std::byte> bytes,
      RoundTrip(static_cast<uint16_t>(Opcode::kFetchBatch),
                std::move(payload)));
  WNW_ASSIGN_OR_RETURN(BatchReply reply, net::DecodeBatchReply(bytes));
  if (reply.lists.size() != nodes.size()) {
    return Status::InvalidArgument(
        "remote FetchBatch answered " + std::to_string(reply.lists.size()) +
        " lists for " + std::to_string(nodes.size()) + " requests");
  }
  return reply;
}

Result<RemoteBackend::ServerCounters> RemoteBackend::FetchServerCounters() {
  WNW_ASSIGN_OR_RETURN(const std::vector<std::byte> reply,
                       RoundTrip(static_cast<uint16_t>(Opcode::kStats), {}));
  WNW_ASSIGN_OR_RETURN(const net::StatsReply stats,
                       net::DecodeStatsReply(reply));
  return ServerCounters{stats.requests_served, stats.connections_accepted};
}

void RemoteBackend::FetchNeighborsCompletion(NodeId u,
                                             CompletionCallback done) {
  auto rpc = std::make_shared<Rpc>();
  rpc->opcode = static_cast<uint16_t>(Opcode::kFetchNeighbors);
  net::EncodeFetchRequest(u, &rpc->payload);
  rpc->done = [done = std::move(done)](Status status,
                                       std::span<const std::byte> reply) {
    if (!status.ok()) {
      done(std::move(status));
      return;
    }
    done(DecodeFetchReply(reply));
  };
  StartAttempt(std::move(rpc), NextConn());
}

RemoteBackend::Conn* RemoteBackend::NextConn() {
  return conns_[next_conn_.fetch_add(1, std::memory_order_relaxed) %
                conns_.size()]
      .get();
}

RemoteBackend::Conn* RemoteBackend::CallerConn() {
  for (const auto& conn : conns_) {
    // A hint only: CallerRoundTrip checks again, with the socket held.
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->up && conn->pending.empty() && conn->out.empty()) {
      return conn.get();
    }
  }
  return NextConn();
}

bool RemoteBackend::CallerRoundTrip(Conn* conn,
                                    const std::shared_ptr<Rpc>& rpc,
                                    std::vector<std::byte>* reply) {
  WNW_DCHECK(!loop_->in_loop_thread());
  std::unique_lock<std::mutex> io(conn->io_mu, std::try_to_lock);
  uint64_t id = 0;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    // `up` and an empty `pending` first: the socket state after them is
    // only stable, and only read, once both hold and `io_mu` is ours.
    if (io.owns_lock() && conn->up && conn->pending.empty() &&
        conn->out.empty() && conn->in.empty() &&
        conn->flush_pos >= conn->flushing.size() && !conn->want_write) {
      id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
      // Registered before the send, so KillConn and TimeoutCall find it.
      conn->pending.emplace(id, rpc);
      fd = conn->fd;
    }
  }
  if (fd < 0) {
    if (io.owns_lock()) io.unlock();
    StartAttempt(rpc, conn);
    return false;
  }
  rpcs_.fetch_add(1, std::memory_order_relaxed);
  // Staged in `flushing`, as FlushConn sends it: what is still unsent when
  // the socket is handed back is finished by the loop, in order.
  conn->flushing.clear();
  conn->flush_pos = 0;
  Frame frame;
  frame.opcode = static_cast<Opcode>(rpc->opcode);
  frame.request_id = id;
  frame.payload = rpc->payload;
  net::EncodeFrame(frame, &conn->flushing);
  bytes_sent_.fetch_add(conn->flushing.size(), std::memory_order_relaxed);
  (void)loop_->Modify(fd, 0);  // the loop stops reading; this thread reads

  // kKill: the connection is broken (write/read error, EOF, framing).
  // kAnswered: an error reply or a wrong opcode; FinishOrRetry judges it.
  enum class Outcome { kWaiting, kReply, kAnswered, kTimedOut, kKill };
  Outcome outcome = Outcome::kWaiting;
  Status why = Status::OK();
  uint16_t reply_opcode = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration<double, std::milli>(options_.deadline_ms);
  const auto spin_until = caller_spin.SpinUntil(start);
  while (outcome == Outcome::kWaiting) {
    why = WriteConn(conn);
    if (!why.ok()) {
      outcome = Outcome::kKill;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    const double left_ms =
        std::chrono::duration<double, std::milli>(deadline - now).count();
    if (left_ms <= 0.0) {
      outcome = Outcome::kTimedOut;
      break;
    }
    pollfd waiting{};
    waiting.fd = fd;
    waiting.events = static_cast<short>(
        POLLIN | (conn->flush_pos < conn->flushing.size() ? POLLOUT : 0));
    // Spin (timeout 0, yielding to a server that shares this CPU) while
    // the budget lasts, then park.
    const bool spin = now < spin_until;
    const int ready = ::poll(
        &waiting, 1,
        spin ? 0 : static_cast<int>(std::ceil(std::min(left_ms, 60'000.0))));
    if (ready < 0 && errno != EINTR) {
      why = Status::Unavailable(std::string("remote poll: ") +
                                std::strerror(errno));
      outcome = Outcome::kKill;
      break;
    }
    if (ready == 0 && spin) ::sched_yield();
    if (ready <= 0 || (waiting.revents & ~POLLOUT) == 0) continue;
    const Status read = ReadConn(conn);
    // Decode what arrived before acting on a failed read: the reply may
    // have come in just ahead of the EOF.
    size_t consumed = 0;
    while (outcome == Outcome::kWaiting) {
      DecodedFrame decoded;
      auto taken = net::DecodeFrame(
          std::span<const std::byte>(conn->in).subspan(consumed), &decoded);
      if (!taken.ok()) {
        why = taken.status();
        outcome = Outcome::kKill;
        break;
      }
      if (*taken == 0) break;
      consumed += *taken;
      // This RPC's frame is the only one on the wire from this
      // connection, so any other id is a reply that outlived its deadline.
      if (decoded.request_id != id) continue;
      why = ReplyStatus(decoded);
      if (why.ok() && decoded.opcode == rpc->opcode) {
        reply->assign(decoded.payload.begin(), decoded.payload.end());
        outcome = Outcome::kReply;
      } else {
        reply_opcode = decoded.opcode;
        outcome = Outcome::kAnswered;
      }
    }
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(consumed));
    if (outcome == Outcome::kWaiting && !read.ok()) {
      why = read;
      outcome = Outcome::kKill;
    }
  }
  caller_spin.Finish(start, std::chrono::steady_clock::now());

  // Hand the socket back. An answered RPC leaves `pending` first, while no
  // one else can fail it.
  if (outcome == Outcome::kReply || outcome == Outcome::kAnswered) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->pending.erase(id);
  }
  const bool unsent = conn->flush_pos < conn->flushing.size();
  (void)loop_->Modify(fd, net::kEventRead);
  io.unlock();
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    queued = !conn->out.empty();
  }
  // A FlushConn that ran meanwhile found the socket taken and left it.
  if (unsent || queued) loop_->Post([this, conn] { FlushConn(conn); });
  switch (outcome) {
    case Outcome::kReply:
      return true;
    case Outcome::kAnswered:
      loop_->Post([this, rpc, why, reply_opcode] {
        FinishOrRetry(rpc, why, reply_opcode, {});
      });
      break;
    case Outcome::kTimedOut:
      loop_->Post([this, conn, id] { TimeoutCall(conn, id); });
      break;
    default:  // kKill
      // While the RPC is still pending the connection has not been killed
      // since; once it is not, the loop has already failed it.
      loop_->Post([this, conn, id, why] {
        bool live = false;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          live = conn->pending.count(id) != 0;
        }
        if (live) KillConn(conn, why);
      });
      break;
  }
  return false;
}

void RemoteBackend::StartAttempt(std::shared_ptr<Rpc> rpc, Conn* conn) {
  if (rpc->attempt == 0) rpcs_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    Frame frame;
    frame.opcode = static_cast<Opcode>(rpc->opcode);
    frame.request_id = id;
    frame.payload = rpc->payload;
    const size_t before = conn->out.size();
    net::EncodeFrame(frame, &conn->out);
    bytes_sent_.fetch_add(conn->out.size() - before,
                          std::memory_order_relaxed);
    conn->pending.emplace(id, std::move(rpc));
  }
  loop_->Post([this, conn, id] { Dispatch(conn, id); });
}

void RemoteBackend::FinishOrRetry(std::shared_ptr<Rpc> rpc, Status status,
                                  uint16_t opcode,
                                  std::span<const std::byte> payload) {
  WNW_DCHECK(loop_->in_loop_thread());
  if (status.ok() && opcode != rpc->opcode) {
    status = Status::InvalidArgument(
        "remote server answered with opcode " + std::to_string(opcode) +
        ", expected " + std::to_string(rpc->opcode));
  }
  if (status.ok() || !TransientCode(status.code()) ||
      rpc->attempt >= options_.max_retries ||
      destroyed_.load(std::memory_order_acquire)) {
    if (!status.ok()) payload = {};
    rpc->done(std::move(status), payload);
    return;
  }
  ++rpc->attempt;
  retries_.fetch_add(1, std::memory_order_relaxed);
  // The backoff parks on the timer wheel, not a thread.
  const double backoff_seconds =
      options_.retry_backoff_ms * rpc->attempt / 1e3;
  if (backoff_seconds > 0.0) {
    loop_->AddTimer(backoff_seconds,
                    [this, rpc = std::move(rpc)]() mutable {
                      StartAttempt(std::move(rpc), NextConn());
                    });
  } else {
    StartAttempt(std::move(rpc), NextConn());
  }
}

void RemoteBackend::Dispatch(Conn* conn, uint64_t request_id) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    const auto it = conn->pending.find(request_id);
    if (it == conn->pending.end()) return;  // already answered or failed
    it->second->timer_id =
        loop_->AddTimer(options_.deadline_ms / 1e3, [this, conn, request_id] {
          TimeoutCall(conn, request_id);
        });
  }
  if (conn->fd < 0) {
    StartConnect(conn);  // the queued frames flush once it is up
  } else if (!conn->connecting) {
    FlushConn(conn);
  }
}

void RemoteBackend::StartConnect(Conn* conn) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) {
    KillConn(conn, Status::IOError(std::string("socket: ") +
                                   std::strerror(errno)));
    return;
  }
  conn->connecting = true;
  if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&peer_),
                sizeof(peer_)) != 0 &&
      errno != EINPROGRESS) {
    KillConn(conn, Status::Unavailable("connect to " + addr_ + ": " +
                                       std::strerror(errno)));
    return;
  }
  // Writability reports the outcome, success or failure alike.
  const Status added = loop_->Add(
      conn->fd, net::kEventWrite,
      [this, conn](uint32_t events) { OnConnIo(conn, events); });
  if (!added.ok()) {
    KillConn(conn, added);
    return;
  }
  conn->connect_timer =
      loop_->AddTimer(options_.connect_timeout_ms / 1e3, [this, conn] {
        KillConn(conn, Status::Unavailable(
                           "connect to " + addr_ + ": timed out after " +
                           std::to_string(options_.connect_timeout_ms) +
                           "ms"));
      });
}

void RemoteBackend::FinishConnect(Conn* conn) {
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
    so_error = errno;
  }
  if (so_error != 0) {
    KillConn(conn, Status::Unavailable("connect to " + addr_ + ": " +
                                       std::strerror(so_error)));
    return;
  }
  loop_->CancelTimer(conn->connect_timer);
  conn->connect_timer = 0;
  conn->connecting = false;
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)loop_->Modify(conn->fd, net::kEventRead);
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->up = true;
  }
  FlushConn(conn);
}

void RemoteBackend::OnConnIo(Conn* conn, uint32_t events) {
  if (conn->connecting) {
    FinishConnect(conn);
    return;
  }
  // A caller holding the socket has turned read interest off and hands the
  // socket back with it on, so a skipped read event comes again.
  std::unique_lock<std::mutex> io(conn->io_mu, std::try_to_lock);
  if (!io.owns_lock()) return;
  if (events & net::kEventWrite) FlushLocked(conn);
  if ((events & net::kEventRead) == 0 || conn->fd < 0) return;
  const Status read = ReadConn(conn);
  if (!read.ok()) {
    KillConn(conn, read);
    return;
  }
  ProcessConnInput(conn);
}

Status RemoteBackend::ReadConn(Conn* conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
      const std::byte* bytes = reinterpret_cast<const std::byte*>(buf);
      conn->in.insert(conn->in.end(), bytes, bytes + n);
      if (n < static_cast<ssize_t>(sizeof(buf))) return Status::OK();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::OK();
    }
    return Status::Unavailable(n == 0 ? "remote server closed the connection"
                                      : std::string("remote read: ") +
                                            std::strerror(errno));
  }
}

void RemoteBackend::ProcessConnInput(Conn* conn) {
  // Each reply completes in place, its payload a view into `in`. A
  // completion cannot touch `in`: what it submits is only queued on `out`
  // and posted, so the buffer stays put until it is compacted below.
  size_t consumed = 0;
  Status poison = Status::OK();
  while (consumed < conn->in.size()) {
    DecodedFrame frame;
    auto taken = net::DecodeFrame(
        std::span<const std::byte>(conn->in).subspan(consumed), &frame);
    if (!taken.ok()) {
      poison = taken.status();
      break;
    }
    if (*taken == 0) break;
    consumed += *taken;
    std::shared_ptr<Rpc> rpc = TakePending(conn, frame.request_id);
    // No pending entry: a reply that outlived its deadline, already failed.
    if (rpc == nullptr) continue;
    FinishOrRetry(std::move(rpc), ReplyStatus(frame), frame.opcode,
                  frame.payload);
  }
  conn->in.erase(conn->in.begin(),
                 conn->in.begin() + static_cast<ptrdiff_t>(consumed));
  if (!poison.ok()) {
    // Framing violation: the stream cannot be resynchronized. Fail callers
    // with the specific decode Status (not retried — the peer is broken).
    KillConn(conn, poison);
  }
}

void RemoteBackend::FlushConn(Conn* conn) {
  // A caller holding the socket posts a flush when it hands it back.
  std::unique_lock<std::mutex> io(conn->io_mu, std::try_to_lock);
  if (io.owns_lock()) FlushLocked(conn);
}

void RemoteBackend::FlushLocked(Conn* conn) {
  WNW_DCHECK(loop_->in_loop_thread());
  while (conn->fd >= 0) {
    if (conn->flush_pos >= conn->flushing.size()) {
      conn->flushing.clear();
      conn->flush_pos = 0;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->flushing.swap(conn->out);
      }
      if (conn->flushing.empty()) {
        if (conn->want_write) {
          conn->want_write = false;
          (void)loop_->Modify(conn->fd, net::kEventRead);
        }
        return;
      }
    }
    // The send runs outside `mu` against `flushing`; concurrent caller
    // appends only touch `out`.
    const Status written = WriteConn(conn);
    if (!written.ok()) {
      KillConn(conn, written);
      return;
    }
    if (conn->flush_pos < conn->flushing.size()) {
      if (!conn->want_write) {
        conn->want_write = true;
        (void)loop_->Modify(conn->fd, net::kEventRead | net::kEventWrite);
      }
      return;
    }
  }
}

Status RemoteBackend::WriteConn(Conn* conn) {
  while (conn->flush_pos < conn->flushing.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->flushing.data() + conn->flush_pos,
               conn->flushing.size() - conn->flush_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->flush_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return Status::Unavailable(std::string("remote write: ") +
                               std::strerror(errno));
  }
  return Status::OK();
}

void RemoteBackend::KillConn(Conn* conn, const Status& why) {
  if (conn->fd >= 0) {
    (void)loop_->Remove(conn->fd);  // NotFound if the connect never got in
    ::close(conn->fd);
    conn->fd = -1;
  }
  loop_->CancelTimer(conn->connect_timer);
  conn->connect_timer = 0;
  conn->connecting = false;
  conn->in.clear();
  conn->flushing.clear();
  conn->flush_pos = 0;
  conn->want_write = false;
  std::unordered_map<uint64_t, std::shared_ptr<Rpc>> failed;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->up = false;
    conn->out.clear();
    failed.swap(conn->pending);
  }
  if (!failed.empty() && !destroyed_.load(std::memory_order_acquire)) {
    WNW_LOG(kDebug) << "remote(" << addr_ << "): failed " << failed.size()
                    << " in-flight calls: " << why.ToString();
  }
  for (auto& [id, rpc] : failed) {
    loop_->CancelTimer(rpc->timer_id);
    FinishOrRetry(std::move(rpc), why, 0, {});
  }
}

void RemoteBackend::TimeoutCall(Conn* conn, uint64_t request_id) {
  std::shared_ptr<Rpc> rpc = TakePending(conn, request_id);
  if (rpc == nullptr) return;  // the reply won the race
  // The connection stays up: a late reply is dropped by the unknown-id
  // path, and pipelined successors are still demultiplexed correctly.
  FinishOrRetry(
      std::move(rpc),
      Status::DeadlineExceeded(
          "remote request " + std::to_string(request_id) + " to '" + addr_ +
          "' missed its " + std::to_string(options_.deadline_ms) +
          "ms deadline"),
      0, {});
}

std::shared_ptr<RemoteBackend::Rpc> RemoteBackend::TakePending(
    Conn* conn, uint64_t request_id) {
  std::shared_ptr<Rpc> rpc;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    const auto it = conn->pending.find(request_id);
    if (it == conn->pending.end()) return nullptr;
    rpc = std::move(it->second);
    conn->pending.erase(it);
  }
  loop_->CancelTimer(rpc->timer_id);
  return rpc;
}

}  // namespace wnw
