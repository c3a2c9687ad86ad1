// RemoteBackend tests: the acceptance gate (every registered sampler draws
// byte-identical samples at identical query cost against a loopback
// wnw server vs the in-process origin), failure paths (dead server at
// connect, server killed mid-run, deadline expiry against a mute peer →
// bounded retries, then Unavailable/DeadlineExceeded; a retry reconnects
// to a restarted server; a completion may resubmit), and the
// session-stats remote telemetry. The remote spec keys' conflict rules are
// in spec_keys_test.cc.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

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
        "backend=remote&addr=" + Addr(server_->port());
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
