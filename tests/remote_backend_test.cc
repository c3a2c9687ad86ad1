// RemoteBackend tests: the acceptance gate (every registered sampler draws
// byte-identical samples at identical query cost against a loopback
// wnw server vs the in-process origin), failure paths (dead server at
// connect, server killed mid-run, deadline expiry against a mute peer →
// bounded retries, then Unavailable/DeadlineExceeded; a retry reconnects
// to a restarted server; a completion may resubmit), and the
// session-stats remote telemetry. It also covers the blocking call's own
// round trip on an idle connection (its deadline, a late reply, and mixed
// blocking and completion traffic on one connection), the spin before a
// wait parks (an idle pair burns no CPU; a slow reply still completes on
// the caller's path; a serial caller keeps to one connection), and a
// failed thread spawn in Connect and WnwServer::Start. The remote spec
// keys' conflict rules are in spec_keys_test.cc.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "access/remote_backend.h"
#include "core/session.h"
#include "engine/walk_engine.h"
#include "net/server.h"
#include "net/wire.h"
#include "test_util.h"

namespace wnw {
namespace {

RemoteBackendOptions FastFail() {
  RemoteBackendOptions options;
  options.connections = 1;
  options.deadline_ms = 200.0;
  options.max_retries = 1;
  options.retry_backoff_ms = 1.0;
  options.connect_timeout_ms = 300.0;
  return options;
}

// A bound-then-closed ephemeral port: nothing listens there afterwards, so
// connects fail fast with ECONNREFUSED instead of a firewall-style hang.
int ClosedPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

// A listener that accepts and then never answers: the deadline, not the
// connect, is what expires.
class MuteListener {
 public:
  MuteListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~MuteListener() { ::close(fd_); }
  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
};

// A one-connection-at-a-time wnw peer that follows a script. It answers
// the Stats handshake at once and answers FetchNeighbors(u) with {u}, but
// holds its replies to the first `held` FetchNeighbors requests. It sends
// them late, as {kLateNeighbor}, when the next FetchNeighbors arrives, and
// answers that one (and every later one) `reply_delay` later, so the
// client reads and drops the late frames while it waits for its own.
class ScriptedListener {
 public:
  static constexpr NodeId kLateNeighbor = 9;
  static constexpr auto kReplyDelay = std::chrono::milliseconds(20);

  explicit ScriptedListener(
      int held, std::chrono::milliseconds reply_delay = kReplyDelay)
      : held_(held), reply_delay_(reply_delay) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~ScriptedListener() {
    ::shutdown(fd_, SHUT_RDWR);  // wakes the blocked accept
    thread_.join();
    ::close(fd_);
  }
  int port() const { return port_; }
  int accepted() const { return accepted_.load(); }

 private:
  void Serve() {
    while (true) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      ++accepted_;
      ServeConnection(conn);
      ::close(conn);
    }
  }

  // Returns once the client closes the connection.
  void ServeConnection(int conn) {
    std::vector<std::byte> in;
    std::vector<uint64_t> late;  // ids whose replies are held
    int held_so_far = 0;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) return;
      const auto* bytes = reinterpret_cast<const std::byte*>(buf);
      in.insert(in.end(), bytes, bytes + n);
      size_t consumed = 0;
      while (true) {
        net::DecodedFrame frame;
        auto taken = net::DecodeFrame(
            std::span<const std::byte>(in).subspan(consumed), &frame);
        if (!taken.ok()) return;
        if (*taken == 0) break;
        consumed += *taken;
        std::vector<std::byte> payload;
        if (frame.opcode == static_cast<uint16_t>(net::Opcode::kStats)) {
          net::StatsReply stats;
          stats.num_nodes = 10;
          stats.origin = "scripted";
          net::EncodeStatsReply(stats, &payload);
          Send(conn, net::Opcode::kStats, frame.request_id, payload);
          continue;
        }
        if (held_so_far < held_) {
          ++held_so_far;
          late.push_back(frame.request_id);
          continue;
        }
        const std::vector<NodeId> stale = {kLateNeighbor};
        for (const uint64_t id : late) {
          payload.clear();
          net::EncodeNeighborsReply(-1, 0.0, 0.0, stale, &payload);
          Send(conn, net::Opcode::kFetchNeighbors, id, payload);
        }
        late.clear();
        std::this_thread::sleep_for(reply_delay_);
        const std::vector<NodeId> own = {
            net::DecodeFetchRequest(frame.payload).value()};
        payload.clear();
        net::EncodeNeighborsReply(-1, 0.0, 0.0, own, &payload);
        Send(conn, net::Opcode::kFetchNeighbors, frame.request_id, payload);
      }
      in.erase(in.begin(), in.begin() + static_cast<ptrdiff_t>(consumed));
    }
  }

  static void Send(int conn, net::Opcode opcode, uint64_t id,
                   std::span<const std::byte> payload) {
    net::Frame frame;
    frame.opcode = opcode;
    frame.request_id = id;
    frame.payload = payload;
    std::vector<std::byte> wire;
    net::EncodeFrame(frame, &wire);
    ASSERT_EQ(::send(conn, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
  }

  const int held_;
  const std::chrono::milliseconds reply_delay_;
  int fd_ = -1;
  int port_ = 0;
  std::atomic<int> accepted_{0};
  std::thread thread_;
};

std::string Addr(int port) {
  return "127.0.0.1:" + std::to_string(port);
}

class RemoteBackendTest : public ::testing::Test {
 protected:
  void StartServer(AccessOptions options = {}) {
    graph_ = testing::MakeTestBA(80, 3, 5);
    backend_ = std::make_shared<InMemoryBackend>(&graph_, options);
    RestartServer(0);
  }

  // Serves backend_ on `port` (0 = ephemeral) with a fresh server.
  void RestartServer(int port) {
    net::ServerOptions server_options;
    server_options.threads = 2;
    server_options.port = port;
    auto server = net::WnwServer::Start(backend_, server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  Graph graph_;
  std::shared_ptr<InMemoryBackend> backend_;
  std::unique_ptr<net::WnwServer> server_;
};

TEST_F(RemoteBackendTest, HandshakeMirrorsServerScenario) {
  AccessOptions access;
  access.restriction = NeighborRestriction::kFixedSubset;
  access.max_neighbors = 4;
  access.seed = 99;
  StartServer(access);
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ((*remote)->num_nodes(), graph_.num_nodes());
  EXPECT_EQ((*remote)->options().restriction,
            NeighborRestriction::kFixedSubset);
  EXPECT_EQ((*remote)->options().max_neighbors, 4u);
  EXPECT_EQ((*remote)->options().seed, 99u);
  EXPECT_EQ((*remote)->origin_name(), "memory");
  EXPECT_EQ((*remote)->origin_shards(), 0);
  EXPECT_TRUE((*remote)->deterministic());
}

TEST_F(RemoteBackendTest, FetchesMatchLocalBackendExactly) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  for (NodeId u = 0; u < graph_.num_nodes(); u += 7) {
    auto reply = (*remote)->FetchNeighbors(u);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->TakeNeighbors(), testing::ToVec(graph_.Neighbors(u)));
    EXPECT_EQ(reply->simulated_seconds, 0.0);
  }
  auto batch = (*remote)->FetchBatch(std::vector<NodeId>{3, 1, 3, 40});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->lists.size(), 4u);
  EXPECT_EQ(batch->lists[3], testing::ToVec(graph_.Neighbors(40)));
}

TEST_F(RemoteBackendTest, ServerSideErrorsArriveVerbatimAndUnretried) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok());
  const uint64_t rpcs_before = (*remote)->rpcs();
  auto reply =
      (*remote)->FetchNeighbors(static_cast<NodeId>(graph_.num_nodes() + 1));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kOutOfRange);
  // A semantic error is not transient: exactly one round trip, no retries.
  EXPECT_EQ((*remote)->rpcs(), rpcs_before + 1);
  EXPECT_EQ((*remote)->retries(), 0u);
}

TEST(RemoteBackendFailureTest, DeadServerAtConnectIsUnavailable) {
  auto remote = RemoteBackend::Connect(Addr(ClosedPort()), FastFail());
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kUnavailable);
}

TEST(RemoteBackendFailureTest, MalformedAddressIsInvalidArgument) {
  for (const char* addr :
       {"nocolon", ":123", "1.2.3.4:", "1.2.3.4:notaport", "1.2.3.4:70000",
        "example.com:80"}) {
    auto remote = RemoteBackend::Connect(addr, FastFail());
    ASSERT_FALSE(remote.ok()) << addr;
    EXPECT_EQ(remote.status().code(), StatusCode::kInvalidArgument) << addr;
  }
}

TEST(RemoteBackendFailureTest, MuteServerMissesDeadline) {
  MuteListener mute;
  RemoteBackendOptions options = FastFail();
  options.deadline_ms = 100.0;
  options.max_retries = 2;
  // The handshake itself times out: three attempts (1 + 2 retries), then
  // DeadlineExceeded surfaces to the caller.
  auto remote = RemoteBackend::Connect(Addr(mute.port()), options);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RemoteBackendFailureTest, BlockingFetchMissesDeadlineAndDropsLateReply) {
  RemoteBackendOptions options = FastFail();  // one connection
  options.deadline_ms = 100.0;
  options.max_retries = 2;
  // Every attempt of the first fetch is held past its deadline.
  ScriptedListener peer(1 + options.max_retries);
  auto remote = RemoteBackend::Connect(Addr(peer.port()), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  // The handshake completes on the loop thread. Give it the moment it
  // takes to hand the connection back, so the fetch finds it idle and
  // makes its first attempt itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto start = std::chrono::steady_clock::now();
  auto missed = (*remote)->FetchNeighbors(3);
  ASSERT_FALSE(missed.ok());
  EXPECT_EQ(missed.status().code(), StatusCode::kDeadlineExceeded)
      << missed.status().ToString();
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(300));  // three whole deadlines
  EXPECT_EQ((*remote)->retries(), 2u);

  // The held replies arrive just ahead of this fetch's own; they are
  // dropped by id, not delivered to it, and the connection stays up.
  auto answered = (*remote)->FetchNeighbors(4);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered->TakeNeighbors(), std::vector<NodeId>{4});
  EXPECT_EQ((*remote)->retries(), 2u);
  EXPECT_EQ((*remote)->rpcs(), 3u);  // handshake + two fetches
  EXPECT_EQ(peer.accepted(), 1);
}

TEST(RemoteBackendFailureTest, FrameQueuedBehindABlockingFetchIsFlushed) {
  RemoteBackendOptions options = FastFail();  // one connection
  options.deadline_ms = 2000.0;
  options.max_retries = 0;
  ScriptedListener peer(0);  // answers every fetch kReplyDelay late
  auto remote = RemoteBackend::Connect(Addr(peer.port()), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto blocking = std::async(std::launch::async, [&remote] {
    return (*remote)->FetchNeighbors(1);
  });
  // The blocking fetch now holds the socket while it waits. The loop
  // cannot flush the completion's frame until the socket is handed back;
  // if nothing flushed it then, it would miss its deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::promise<Result<FetchReply>> queued;
  (*remote)->FetchNeighborsCompletion(
      2, [&queued](Result<FetchReply> reply) {
        queued.set_value(std::move(reply));
      });
  Result<FetchReply> first = blocking.get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->TakeNeighbors(), std::vector<NodeId>{1});
  Result<FetchReply> second = queued.get_future().get();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->TakeNeighbors(), std::vector<NodeId>{2});
  EXPECT_EQ((*remote)->retries(), 0u);
}

// --- spin before parking -----------------------------------------------------

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// Back-to-back fetches keep the caller and the server's reactors spinning.
// Once they stop, every waiter parks within one spin budget, so the idle
// pair burns no CPU: a spin that does not park fails here.
TEST_F(RemoteBackendTest, IdlePairBurnsNoCpuAfterABurst) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  for (int i = 0; i < 1000; ++i) {
    const NodeId u = static_cast<NodeId>(i) % graph_.num_nodes();
    ASSERT_TRUE((*remote)->FetchNeighbors(u).ok());
  }
  const double before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(ProcessCpuSeconds() - before, 0.030);
}

// A reply that arrives long after the spin budget is spent finds the
// caller parked in its own poll: it still completes there, in one RPC,
// and is neither resent nor handed to the loop. The second fetch starts
// parked, since the first one's wait overran the budget.
TEST(RemoteBackendSpinTest, SlowReplyCompletesOnTheCallersPath) {
  RemoteBackendOptions options = FastFail();  // one connection
  options.deadline_ms = 2000.0;
  options.max_retries = 0;
  constexpr auto kHeld = std::chrono::milliseconds(5);
  ScriptedListener peer(0, kHeld);
  auto remote = RemoteBackend::Connect(Addr(peer.port()), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const uint64_t rpcs_before = (*remote)->rpcs();
  for (const NodeId u : {NodeId{1}, NodeId{2}}) {
    const auto start = std::chrono::steady_clock::now();
    auto reply = (*remote)->FetchNeighbors(u);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_GE(std::chrono::steady_clock::now() - start, kHeld);
    EXPECT_EQ(reply->TakeNeighbors(), std::vector<NodeId>{u});
    EXPECT_EQ((*remote)->rpcs() - rpcs_before, u);
  }
  EXPECT_EQ((*remote)->retries(), 0u);
  EXPECT_EQ(peer.accepted(), 1);
}

// A lone serial caller keeps to the first idle pool connection, so one
// server reactor sees its requests back to back and the second connection
// never opens. Rotating would send the second fetch down a new connection
// that this one-connection-at-a-time peer never serves.
TEST(RemoteBackendSpinTest, SerialCallerKeepsToOneConnection) {
  RemoteBackendOptions options = FastFail();
  options.connections = 2;
  options.max_retries = 0;
  ScriptedListener peer(0, std::chrono::milliseconds(0));
  auto remote = RemoteBackend::Connect(Addr(peer.port()), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  for (NodeId u = 0; u < 10; ++u) {
    auto reply = (*remote)->FetchNeighbors(u);
    ASSERT_TRUE(reply.ok()) << u << ": " << reply.status().ToString();
    EXPECT_EQ(reply->TakeNeighbors(), std::vector<NodeId>{u});
  }
  EXPECT_EQ((*remote)->rpcs(), 11u);  // handshake + ten fetches
  EXPECT_EQ((*remote)->retries(), 0u);
  EXPECT_EQ(peer.accepted(), 1);
}

TEST_F(RemoteBackendTest, ServerKilledMidRunFailsBoundedThenUnavailable) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE((*remote)->FetchNeighbors(0).ok());

  server_->Shutdown();
  auto reply = (*remote)->FetchBatch(std::vector<NodeId>{1, 2, 3});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_GE((*remote)->retries(), 1u);  // it did retry before giving up
}

TEST_F(RemoteBackendTest, RetriesReconnectOnBothPaths) {
  StartServer();
  const int port = server_->port();
  RemoteBackendOptions options = FastFail();
  options.max_retries = 3;
  options.retry_backoff_ms = 300.0;
  auto remote = RemoteBackend::Connect(Addr(port), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  using Submit = std::function<std::future<Result<FetchReply>>(NodeId)>;
  const Submit paths[] = {
      [&](NodeId u) {
        auto promise = std::make_shared<std::promise<Result<FetchReply>>>();
        auto future = promise->get_future();
        (*remote)->FetchNeighborsCompletion(
            u, [promise](Result<FetchReply> reply) {
              promise->set_value(std::move(reply));
            });
        return future;
      },
      [&](NodeId u) {
        return std::async(std::launch::async,
                          [&remote, u] { return (*remote)->FetchNeighbors(u); });
      },
  };
  // Each path fetches from a freshly killed server. Its first attempt
  // fails; only a retry that reconnects reaches the restarted server.
  NodeId u = 5;
  for (const Submit& submit : paths) {
    server_->Shutdown();
    const uint64_t retries_before = (*remote)->retries();
    std::future<Result<FetchReply>> reply = submit(u);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((*remote)->retries() == retries_before &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT((*remote)->retries(), retries_before) << "node " << u;
    RestartServer(port);
    Result<FetchReply> fetched = reply.get();
    ASSERT_TRUE(fetched.ok()) << "node " << u << ": "
                              << fetched.status().ToString();
    EXPECT_EQ(fetched->TakeNeighbors(), testing::ToVec(graph_.Neighbors(u)));
    ++u;
  }
}

TEST_F(RemoteBackendTest, CompletionMayResubmitToItsOwnConnection) {
  StartServer();
  RemoteBackendOptions options = FastFail();  // one connection
  options.max_retries = 0;
  auto remote = RemoteBackend::Connect(Addr(server_->port()), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  server_->Shutdown();

  // Every failure resubmits from inside its own completion, onto the one
  // connection whose failure is completing.
  constexpr int kChain = 50;
  int completed = 0;
  int unavailable = 0;
  std::promise<void> all_done;
  std::function<void(Result<FetchReply>)> resubmit =
      [&](Result<FetchReply> reply) {
        if (reply.status().code() == StatusCode::kUnavailable) ++unavailable;
        if (++completed == kChain) {
          all_done.set_value();
          return;
        }
        (*remote)->FetchNeighborsCompletion(1, resubmit);
      };
  (*remote)->FetchNeighborsCompletion(1, resubmit);
  ASSERT_EQ(all_done.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(unavailable, kChain);
}

TEST_F(RemoteBackendTest, BlockingAndCompletionFetchesShareOneConnection) {
  StartServer();
  RemoteBackendOptions options = FastFail();  // one connection
  options.deadline_ms = 5000.0;
  auto remote = RemoteBackend::Connect(Addr(server_->port()), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const uint64_t rpcs_before = (*remote)->rpcs();
  const NodeId n = static_cast<NodeId>(graph_.num_nodes());
  auto expected = [&](NodeId u) {
    return backend_->FetchNeighbors(u).value().TakeNeighbors();
  };

  // A completion chain, each fetch issued from the previous one's
  // completion on the loop thread, the shape of BM_RemoteFetchChained...
  constexpr int kChain = 300;
  int chain_left = kChain;
  NodeId chain_node = 0;
  std::promise<void> chain_done;
  std::function<void(Result<FetchReply>)> next =
      [&](Result<FetchReply> reply) {
        EXPECT_TRUE(reply.ok()) << reply.status().ToString();
        if (reply.ok()) {
          EXPECT_EQ(reply->TakeNeighbors(), expected(chain_node))
              << "chained node " << chain_node;
        }
        if (--chain_left == 0) {
          chain_done.set_value();
          return;
        }
        chain_node = (chain_node + 1) % n;
        (*remote)->FetchNeighborsCompletion(chain_node, next);
      };
  (*remote)->FetchNeighborsCompletion(chain_node, next);

  // ...while three threads make blocking fetches and batches.
  constexpr int kThreads = 3;
  constexpr int kCallsPerThread = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const NodeId u = static_cast<NodeId>((t * 31 + i * 7) % n);
        if (i % 3 == 2) {
          const std::vector<NodeId> nodes = {u, (u + 1) % n};
          auto batch = (*remote)->FetchBatch(nodes);
          ASSERT_TRUE(batch.ok()) << batch.status().ToString();
          EXPECT_EQ(batch->lists, backend_->FetchBatch(nodes).value().lists)
              << "batch at node " << u;
        } else {
          auto reply = (*remote)->FetchNeighbors(u);
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          EXPECT_EQ(reply->TakeNeighbors(), expected(u)) << "node " << u;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(chain_done.get_future().wait_for(std::chrono::seconds(60)),
            std::future_status::ready);

  EXPECT_EQ((*remote)->rpcs() - rpcs_before,
            static_cast<uint64_t>(kChain + kThreads * kCallsPerThread));
  EXPECT_EQ((*remote)->retries(), 0u);
  EXPECT_EQ(server_->counters().connections_accepted, 1u);
}

// A thread that cannot be spawned is a Status, not a std::system_error
// escaping into std::terminate. Each child caps its own address space so
// that the next thread stack does not fit. The children are fresh
// processes ("threadsafe" style): a forked child would inherit the cached
// stacks of threads that earlier tests joined, and need no new mapping.
TEST(ThreadSpawnFailureTest, ConnectIsResourceExhausted) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        testing::CapAddressSpace(testing::DefaultThreadStack() / 4);
        testing::ExitWithStatus(
            RemoteBackend::Connect(Addr(ClosedPort()), FastFail()).status());
      },
      ::testing::ExitedWithCode(0), "ResourceExhausted");
}

TEST(ThreadSpawnFailureTest, ServerStartStopsTheReactorsItStarted) {
  Graph graph = testing::MakeTestBA(40, 3, 5);
  auto backend = std::make_shared<InMemoryBackend>(&graph);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        // Room for one reactor stack of three: the first spawn succeeds,
        // the second fails, and the started reactor is stopped and joined.
        const size_t stack = testing::DefaultThreadStack();
        testing::CapAddressSpace(stack + stack / 2);
        testing::ExitWithStatus(
            net::WnwServer::Start(backend, {.threads = 3}).status());
      },
      ::testing::ExitedWithCode(0), "ResourceExhausted");
}

// --- the acceptance gate -----------------------------------------------------

struct SamplerCase {
  std::string spec;
  AccessOptions access;
};

std::vector<SamplerCase> AcceptanceCases() {
  AccessOptions fixed_subset;
  fixed_subset.restriction = NeighborRestriction::kFixedSubset;
  fixed_subset.max_neighbors = 3;
  fixed_subset.seed = 31;
  return {
      {"burnin:mhrw", {}},
      {"longrun:srw?thinning=2", {}},
      {"we:mhrw?diameter=6", {}},
      {"we-path:mhrw?diameter=6", {}},
      {"we:mhrw?diameter=6&window=4", {}},  // async executor over remote
      {"burnin:mhrw", fixed_subset},        // §6.3.1 restriction server-side
      {"walk:srw?steps=6", {}},             // fixed-length chain
  };
}

TEST_F(RemoteBackendTest, EveryRegisteredSamplerDrawsIdenticalSamples) {
  // The registry's families must all be exercised; if someone registers a
  // new sampler, this test reminds them to add an acceptance case.
  std::vector<std::string> families;
  for (const SamplerCase& c : AcceptanceCases()) {
    families.push_back(c.spec.substr(0, c.spec.find(':')));
  }
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    EXPECT_NE(std::find(families.begin(), families.end(), name),
              families.end())
        << "sampler '" << name << "' has no remote acceptance case";
  }

  for (const SamplerCase& test_case : AcceptanceCases()) {
    // Fresh server per case: restriction randomness is served-state, and
    // both sides must observe the same per-node call sequences.
    graph_ = testing::MakeTestBA(80, 3, 5);
    backend_ = std::make_shared<InMemoryBackend>(&graph_, test_case.access);
    auto started = net::WnwServer::Start(backend_, {.threads = 2});
    ASSERT_TRUE(started.ok());
    server_ = std::move(started).value();

    SessionOptions local_options;
    local_options.access = test_case.access;
    local_options.seed = 77;
    auto local = SamplingSession::Open(&graph_, test_case.spec, local_options);
    ASSERT_TRUE(local.ok()) << test_case.spec << ": "
                            << local.status().ToString();
    std::vector<NodeId> local_samples;
    ASSERT_TRUE((*local)->DrawInto(&local_samples, 25).ok());
    const SessionStats local_stats = (*local)->Stats();

    SessionOptions remote_options;
    remote_options.seed = 77;
    remote_options.remote = FastFail();
    const std::string remote_spec =
        test_case.spec +
        (test_case.spec.find('?') == std::string::npos ? "?" : "&") +
        "backend=remote&addr=" + Addr(server_->port());
    auto remote = SamplingSession::Open(&graph_, remote_spec, remote_options);
    ASSERT_TRUE(remote.ok()) << remote_spec << ": "
                             << remote.status().ToString();
    std::vector<NodeId> remote_samples;
    ASSERT_TRUE((*remote)->DrawInto(&remote_samples, 25).ok());
    const SessionStats remote_stats = (*remote)->Stats();

    // Byte-identical samples at identical query cost.
    EXPECT_EQ(remote_samples, local_samples) << test_case.spec;
    EXPECT_EQ(remote_stats.query_cost, local_stats.query_cost)
        << test_case.spec;
    EXPECT_EQ(remote_stats.total_queries, local_stats.total_queries)
        << test_case.spec;
    EXPECT_EQ(remote_stats.waited_seconds, local_stats.waited_seconds)
        << test_case.spec;

    // And the remote telemetry is live.
    EXPECT_EQ(remote_stats.remote_addr, Addr(server_->port()));
    EXPECT_GT(remote_stats.remote_rpcs, 0u) << test_case.spec;
    EXPECT_GT(remote_stats.remote_bytes, 0u) << test_case.spec;
    EXPECT_EQ(local_stats.remote_addr, "");
    EXPECT_EQ(local_stats.remote_rpcs, 0u);
  }
}

TEST_F(RemoteBackendTest, EngineOverRemoteMatchesInProcessForEverySampler) {
  // The engine half of the acceptance gate: RunWalkEngine over a loopback
  // wnw server must be byte-identical — per walker, at identical logical
  // query cost — to the same engine run against the in-process origin, for
  // every registered sampler. The window on the remote side routes the
  // engine's fetches through the completion executor, so this is also the
  // completion-dispatch identity check.
  std::vector<std::string> families;
  for (const SamplerCase& c : AcceptanceCases()) {
    families.push_back(c.spec.substr(0, c.spec.find(':')));
  }
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    EXPECT_NE(std::find(families.begin(), families.end(), name),
              families.end())
        << "sampler '" << name << "' has no engine-over-remote case";
  }

  constexpr uint64_t kWalkers = 4;
  constexpr uint64_t kSamples = 3;
  for (const SamplerCase& test_case : AcceptanceCases()) {
    graph_ = testing::MakeTestBA(80, 3, 5);
    backend_ = std::make_shared<InMemoryBackend>(&graph_, test_case.access);
    auto started = net::WnwServer::Start(backend_, {.threads = 2});
    ASSERT_TRUE(started.ok());
    server_ = std::move(started).value();

    EngineOptions local_options;
    local_options.walkers = kWalkers;
    local_options.samples_per_walker = kSamples;
    local_options.session.access = test_case.access;
    local_options.session.seed = 77;
    const auto local = RunWalkEngine(&graph_, test_case.spec, local_options);
    ASSERT_TRUE(local.ok()) << test_case.spec << ": "
                            << local.status().ToString();

    EngineOptions remote_options;
    remote_options.walkers = kWalkers;
    remote_options.samples_per_walker = kSamples;
    remote_options.session.seed = 77;
    remote_options.session.remote = FastFail();
    const std::string remote_spec =
        test_case.spec +
        (test_case.spec.find('?') == std::string::npos ? "?" : "&") +
        "backend=remote&addr=" + Addr(server_->port()) +
        (test_case.spec.find("window=") == std::string::npos ? "&window=8"
                                                             : "");
    const auto remote = RunWalkEngine(&graph_, remote_spec, remote_options);
    ASSERT_TRUE(remote.ok()) << remote_spec << ": "
                             << remote.status().ToString();

    for (size_t w = 0; w < kWalkers; ++w) {
      EXPECT_EQ(testing::ToVec(remote->SamplesFor(w)),
                testing::ToVec(local->SamplesFor(w)))
          << test_case.spec << " walker " << w;
      EXPECT_EQ(remote->walker_stats[w].query_cost,
                local->walker_stats[w].query_cost)
          << test_case.spec << " walker " << w;
      EXPECT_EQ(remote->walker_stats[w].total_queries,
                local->walker_stats[w].total_queries)
          << test_case.spec << " walker " << w;
    }
  }
}

TEST_F(RemoteBackendTest, WrongGraphNodeCountIsRejected) {
  StartServer();  // serves an 80-node graph
  const Graph other = testing::MakeTestBA(40, 3, 9);
  auto session = SamplingSession::Open(
      &other,
      "burnin:mhrw?backend=remote&addr=" + Addr(server_->port()));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("serves"), std::string::npos);
}

TEST_F(RemoteBackendTest, FetchServerCountersAdvance) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok());
  auto before = (*remote)->FetchServerCounters();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*remote)->FetchNeighbors(1).ok());
  auto after = (*remote)->FetchServerCounters();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->requests_served, before->requests_served);
  EXPECT_GE(after->connections_accepted, 1u);
}

}  // namespace
}  // namespace wnw
