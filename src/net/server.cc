#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "access/sharded_backend.h"
#include "net/wire.h"
#include "util/logging.h"
#include "util/thread.h"

namespace wnw::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

int DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned target = hw == 0 ? 2 : 2 * hw;
  return static_cast<int>(std::min(8u, std::max(1u, target)));
}

// Per-connection write backpressure: once the unflushed output backlog
// crosses the high-water mark the connection stops reading (and stops
// decoding requests already buffered) until the backlog drains below the
// low-water mark. Bounds the memory a client that pipelines requests
// without consuming responses can pin; a single reply larger than the mark
// (FetchBatch replies reach 64 MiB) still buffers whole, so the worst case
// is high-water + one maximal reply.
constexpr size_t kOutHighWaterBytes = 16ull << 20;
constexpr size_t kOutLowWaterBytes = 1ull << 20;

}  // namespace

/// One accepted connection, owned by (and only touched from) its reactor's
/// loop thread.
struct WnwServer::Connection {
  int fd = -1;
  std::vector<std::byte> in;  // unconsumed received bytes
  std::vector<std::byte> out;
  size_t out_pos = 0;            // first unflushed byte of `out`
  bool want_write = false;       // flush blocked on EAGAIN
  bool paused_read = false;      // output backlog above the high-water mark
  uint32_t interest = kEventRead;  // event mask currently registered
  bool draining = false;         // close as soon as `out` flushes

  size_t backlog() const { return out.size() - out_pos; }
};

/// One reactor thread: an event loop plus the connections assigned to it.
/// `connections` is loop-affine.
struct WnwServer::Reactor {
  std::unique_ptr<EventLoop> loop;
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  bool draining = false;
};

WnwServer::WnwServer(std::shared_ptr<AccessBackend> backend,
                     ServerOptions options)
    : backend_(std::move(backend)), options_(std::move(options)) {}

Result<std::unique_ptr<WnwServer>> WnwServer::Start(
    std::shared_ptr<AccessBackend> backend, ServerOptions options) {
  if (backend == nullptr) {
    return Status::InvalidArgument("WnwServer needs a backend");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  if (options.threads < 0 || options.threads > 64) {
    return Status::InvalidArgument("reactor threads must be in [0, 64]");
  }
  if (options.threads == 0) options.threads = DefaultThreads();

  std::unique_ptr<WnwServer> server(
      new WnwServer(std::move(backend), std::move(options)));
  WNW_RETURN_IF_ERROR(server->Listen());
  for (int i = 0; i < server->options_.threads; ++i) {
    auto reactor = std::make_unique<Reactor>();
    WNW_ASSIGN_OR_RETURN(reactor->loop, EventLoop::Create());
    server->loops_.push_back(std::move(reactor));
  }
  // The listener lives on reactor 0. Registered before Run() starts, which
  // is the one moment Add may be called off the loop thread.
  WnwServer* raw = server.get();
  WNW_RETURN_IF_ERROR(server->loops_[0]->loop->Add(
      server->listen_fd_, kEventRead, [raw](uint32_t) { raw->OnAccept(); }));
  // Reactor 0 starts last, so no connection is accepted unless every
  // reactor runs; a failed spawn stops the ones already started. Room for
  // every thread is reserved first: a started thread must never be dropped
  // by a failed append.
  server->threads_.reserve(server->loops_.size());
  for (size_t i = server->loops_.size(); i-- > 0;) {
    EventLoop* loop = server->loops_[i]->loop.get();
    Result<std::thread> thread =
        StartThread("wnw server: cannot start a reactor thread",
                    [loop] { loop->Run(); });
    if (!thread.ok()) {
      for (size_t j = server->loops_.size(); --j > i;) {
        server->loops_[j]->loop->Stop();
      }
      for (std::thread& started : server->threads_) started.join();
      server->threads_.clear();
      return thread.status();
    }
    server->threads_.push_back(std::move(thread).value());
  }
  return server;
}

Status WnwServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" + options_.bind_addr +
                                   "' (expected a dotted IPv4 address)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind " + options_.bind_addr + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 1024) != 0) return Errno("listen");
  WNW_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void WnwServer::OnAccept() {
  // Level-triggered, but draining the backlog here keeps accept latency
  // independent of how busy reactor 0's connections are.
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or the listener closed mid-drain
    if (shutting_down_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    Reactor* reactor =
        loops_[next_reactor_.fetch_add(1, std::memory_order_relaxed) %
               loops_.size()]
            .get();
    // Registration is loop-affine; hand the fd to its reactor's thread.
    reactor->loop->Post([this, reactor, fd] { AddConnection(reactor, fd); });
  }
}

void WnwServer::AddConnection(Reactor* reactor, int fd) {
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  const Status added = reactor->loop->Add(
      fd, kEventRead, [this, reactor, fd](uint32_t events) {
        OnConnectionIo(reactor, fd, events);
      });
  if (!added.ok() || reactor->draining) {
    if (added.ok()) (void)reactor->loop->Remove(fd);
    ::close(fd);
    connections_open_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  reactor->connections[fd] = std::move(conn);
}

void WnwServer::OnConnectionIo(Reactor* reactor, int fd, uint32_t events) {
  const auto it = reactor->connections.find(fd);
  if (it == reactor->connections.end()) return;
  Connection* conn = it->second.get();
  if (events & kEventWrite) {
    const bool was_paused = conn->paused_read;
    if (!FlushWrites(reactor, conn)) return;
    if (was_paused && !conn->paused_read && !conn->in.empty()) {
      // The drain lifted backpressure: serve the requests that were already
      // buffered before reading new ones (nothing re-triggers them).
      ProcessInput(reactor, conn);
      if (reactor->connections.find(fd) == reactor->connections.end()) return;
    }
  }
  if ((events & kEventRead) == 0) return;

  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      const std::byte* bytes = reinterpret_cast<const std::byte*>(buf);
      conn->in.insert(conn->in.end(), bytes, bytes + n);
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or a hard error. Any partial frame in `in` simply never became a
    // request — a mid-frame close costs the client its connection, nothing
    // else (tests/net_test.cc pins this down).
    CloseConnection(reactor, fd);
    return;
  }
  ProcessInput(reactor, conn);
}

void WnwServer::ProcessInput(Reactor* reactor, Connection* conn) {
  while (true) {
    size_t consumed = 0;
    bool poisoned = false;
    bool backpressured = false;
    while (consumed < conn->in.size()) {
      if (conn->backlog() >= kOutHighWaterBytes) {
        // Stop serving (and, via paused_read, stop reading) until the
        // responses already owed drain below the low-water mark.
        backpressured = true;
        break;
      }
      DecodedFrame frame;
      auto taken = DecodeFrame(
          std::span<const std::byte>(conn->in).subspan(consumed), &frame);
      if (!taken.ok()) {
        // Framing violation: the byte stream cannot be resynchronized.
        WNW_LOG(kWarning) << "wnw_serve: closing connection: "
                          << taken.status().ToString();
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        poisoned = true;
        break;
      }
      if (*taken == 0) break;  // incomplete frame; wait for more bytes
      HandleFrame(conn, frame);
      consumed += *taken;
    }
    if (consumed > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() + static_cast<ptrdiff_t>(consumed));
    }
    if (poisoned) {
      CloseConnection(reactor, conn->fd);
      return;
    }
    if (backpressured) conn->paused_read = true;
    if (!FlushWrites(reactor, conn)) return;  // connection died / drained
    // FlushWrites lifts paused_read once the backlog drains below the
    // low-water mark; keep serving the still-buffered requests in that
    // case, otherwise wait for a write (or read) event.
    if (!backpressured || conn->paused_read) return;
  }
}

void WnwServer::HandleFrame(Connection* conn, const DecodedFrame& frame) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  const uint16_t opcode = frame.opcode;
  if (!KnownOpcode(opcode)) {
    SendErrorFrame(conn, opcode, frame.request_id,
                   Status::InvalidArgument(
                       "unknown opcode " + std::to_string(opcode) +
                       " (this server speaks Ping|Stats|FetchNeighbors|"
                       "FetchBatch)"));
    return;
  }
  std::vector<std::byte> payload;
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kPing:
      break;  // empty payload both ways
    case Opcode::kStats: {
      StatsReply reply;
      FillStatsReply(&reply);
      EncodeStatsReply(reply, &payload);
      break;
    }
    case Opcode::kFetchNeighbors: {
      auto node = DecodeFetchRequest(frame.payload);
      if (!node.ok()) {
        SendErrorFrame(conn, opcode, frame.request_id, node.status());
        return;
      }
      auto reply = backend_->FetchNeighbors(*node);
      if (!reply.ok()) {
        SendErrorFrame(conn, opcode, frame.request_id, reply.status());
        return;
      }
      EncodeNeighborsReply(reply->shard, reply->simulated_seconds,
                           reply->serial_seconds, reply->neighbors, &payload);
      break;
    }
    case Opcode::kFetchBatch: {
      auto nodes = DecodeBatchRequest(frame.payload);
      if (!nodes.ok()) {
        SendErrorFrame(conn, opcode, frame.request_id, nodes.status());
        return;
      }
      auto reply = backend_->FetchBatch(*nodes);
      if (!reply.ok()) {
        SendErrorFrame(conn, opcode, frame.request_id, reply.status());
        return;
      }
      EncodeBatchReply(*reply, &payload);
      break;
    }
  }
  EncodeFrame(Frame{static_cast<Opcode>(opcode), frame.request_id,
                    StatusCode::kOk, payload},
              &conn->out);
}

void WnwServer::SendErrorFrame(Connection* conn, uint16_t opcode,
                               uint64_t request_id, const Status& status) {
  // The payload of an error response is the raw UTF-8 message; the client
  // rebuilds the Status via Status::FromCode.
  const std::string& msg = status.message();
  const auto bytes = std::as_bytes(
      std::span<const char>(msg.data(), msg.size()));
  Frame frame;
  frame.opcode = static_cast<Opcode>(opcode);
  frame.request_id = request_id;
  frame.status = status.code();
  frame.payload = bytes;
  EncodeFrame(frame, &conn->out);
}

bool WnwServer::FlushWrites(Reactor* reactor, Connection* conn) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_pos,
               conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->want_write = true;
      break;
    }
    CloseConnection(reactor, conn->fd);
    return false;
  }
  if (conn->out_pos >= conn->out.size()) {
    // Fully flushed: drop the buffer and the EPOLLOUT interest.
    conn->out.clear();
    conn->out_pos = 0;
    conn->want_write = false;
    if (conn->draining) {
      CloseConnection(reactor, conn->fd);
      return false;
    }
  }
  if (conn->paused_read && conn->backlog() <= kOutLowWaterBytes) {
    conn->paused_read = false;
  }
  UpdateInterest(reactor, conn);
  return true;
}

void WnwServer::UpdateInterest(Reactor* reactor, Connection* conn) {
  const uint32_t want = (conn->paused_read ? 0u : kEventRead) |
                        (conn->want_write ? kEventWrite : 0u);
  if (want == conn->interest) return;
  conn->interest = want;
  (void)reactor->loop->Modify(conn->fd, want);
}

void WnwServer::CloseConnection(Reactor* reactor, int fd) {
  const auto it = reactor->connections.find(fd);
  if (it == reactor->connections.end()) return;
  (void)reactor->loop->Remove(fd);
  ::close(fd);
  reactor->connections.erase(it);
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  if (reactor->draining && reactor->connections.empty()) {
    reactor->loop->Stop();
  }
}

void WnwServer::FillStatsReply(StatsReply* reply) const {
  const AccessOptions& access = backend_->options();
  reply->num_nodes = backend_->num_nodes();
  reply->server_seed = access.seed;
  reply->restriction = static_cast<uint32_t>(access.restriction);
  reply->max_neighbors = access.max_neighbors;
  reply->bidirectional = access.bidirectional_check ? 1 : 0;
  const ShardedBackend* sharded = backend_->AsSharded();
  reply->shards = sharded == nullptr
                      ? 0
                      : static_cast<uint32_t>(sharded->num_shards());
  reply->requests_served = requests_served_.load(std::memory_order_relaxed);
  reply->connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  reply->origin = std::string(backend_->name());
}

WnwServer::Counters WnwServer::counters() const {
  Counters counters;
  counters.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  counters.connections_open =
      connections_open_.load(std::memory_order_relaxed);
  counters.requests_served = requests_served_.load(std::memory_order_relaxed);
  counters.protocol_errors =
      protocol_errors_.load(std::memory_order_relaxed);
  return counters;
}

void WnwServer::Shutdown() {
  if (shut_down_.exchange(true)) return;
  shutting_down_.store(true, std::memory_order_release);
  if (threads_.empty()) {
    // Start() failed before the reactor threads launched (EADDRINUSE, bad
    // bind address, ...): no loop is running and no connection exists, so
    // tear down inline instead of posting to loops that may not exist.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // Close the listener first so no connection arrives after the drain
  // sweep. Loop-affine work goes through Post.
  loops_[0]->loop->Post([this] {
    (void)loops_[0]->loop->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  });
  const double timeout = std::max(0.0, options_.drain_timeout_seconds);
  for (auto& reactor_ptr : loops_) {
    Reactor* reactor = reactor_ptr.get();
    reactor->loop->Post([this, reactor, timeout] {
      reactor->draining = true;
      // Sweep a snapshot of fds: CloseConnection mutates the map.
      std::vector<int> fds;
      fds.reserve(reactor->connections.size());
      for (const auto& [fd, conn] : reactor->connections) fds.push_back(fd);
      for (int fd : fds) {
        Connection* conn = reactor->connections.at(fd).get();
        if (conn->out_pos >= conn->out.size()) {
          CloseConnection(reactor, fd);  // nothing owed
        } else {
          conn->draining = true;  // close once the owed bytes flush
        }
      }
      if (reactor->connections.empty()) {
        reactor->loop->Stop();
        return;
      }
      // Bounded drain: whatever has not flushed by the deadline is cut off.
      reactor->loop->AddTimer(timeout, [this, reactor] {
        std::vector<int> remaining;
        for (const auto& [fd, conn] : reactor->connections) {
          remaining.push_back(fd);
        }
        for (int fd : remaining) CloseConnection(reactor, fd);
        reactor->loop->Stop();
      });
    });
  }
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

WnwServer::~WnwServer() { Shutdown(); }

}  // namespace wnw::net
