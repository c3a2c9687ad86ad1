// Wire-protocol and reactor tests: framing hardening (a peer can be
// truncated, hostile, or dead mid-frame, never crashing or hanging the
// server), the timer wheel, the event loop, and the WnwServer served over
// real loopback sockets with pipelined and interleaved requests.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "access/backend.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "net/wire.h"
#include "random/rng.h"
#include "test_util.h"

namespace wnw {
namespace {

using net::DecodedFrame;
using net::Frame;
using net::Opcode;

std::vector<std::byte> EncodeOne(Opcode opcode, uint64_t id,
                                 std::span<const std::byte> payload = {}) {
  Frame frame;
  frame.opcode = opcode;
  frame.request_id = id;
  frame.payload = payload;
  std::vector<std::byte> out;
  net::EncodeFrame(frame, &out);
  return out;
}

// --- frame codec -------------------------------------------------------------

TEST(WireTest, FrameRoundTrip) {
  const std::vector<std::byte> payload = {std::byte{1}, std::byte{2},
                                          std::byte{3}};
  const std::vector<std::byte> wire =
      EncodeOne(Opcode::kFetchNeighbors, 42, payload);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + 3);

  DecodedFrame decoded;
  auto taken = net::DecodeFrame(wire, &decoded);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(*taken, wire.size());
  EXPECT_EQ(decoded.opcode, static_cast<uint16_t>(Opcode::kFetchNeighbors));
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.status, StatusCode::kOk);
  ASSERT_EQ(decoded.payload.size(), 3u);
  EXPECT_EQ(decoded.payload[1], std::byte{2});
}

TEST(WireTest, TruncatedFramesAreIncompleteNotErrors) {
  const std::vector<std::byte> wire =
      EncodeOne(Opcode::kPing, 7, std::vector<std::byte>(10));
  // Every prefix short of the full frame decodes to "0 consumed, wait for
  // more bytes" — a slow peer is not a protocol violation.
  for (size_t len = 0; len < wire.size(); ++len) {
    DecodedFrame decoded;
    auto taken = net::DecodeFrame(
        std::span<const std::byte>(wire.data(), len), &decoded);
    ASSERT_TRUE(taken.ok()) << "len=" << len;
    EXPECT_EQ(*taken, 0u) << "len=" << len;
  }
}

TEST(WireTest, WrongMagicIsInvalidArgument) {
  std::vector<std::byte> wire = EncodeOne(Opcode::kPing, 1);
  wire[0] = std::byte{0xff};
  DecodedFrame decoded;
  auto taken = net::DecodeFrame(wire, &decoded);
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(taken.status().message().find("magic"), std::string::npos);
}

TEST(WireTest, WrongVersionIsInvalidArgument) {
  std::vector<std::byte> wire = EncodeOne(Opcode::kPing, 1);
  wire[4] = std::byte{0x7f};  // version field
  DecodedFrame decoded;
  auto taken = net::DecodeFrame(wire, &decoded);
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(taken.status().message().find("version"), std::string::npos);
}

TEST(WireTest, OversizedDeclaredPayloadIsInvalidArgument) {
  std::vector<std::byte> wire = EncodeOne(Opcode::kPing, 1);
  // Declare a payload over the cap without shipping it: a hostile length
  // must be rejected from the header alone, not buffered toward 4 GiB.
  const uint32_t huge = net::kMaxPayloadBytes + 1;
  std::memcpy(wire.data() + 20, &huge, sizeof(huge));
  DecodedFrame decoded;
  auto taken = net::DecodeFrame(wire, &decoded);
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(taken.status().message().find("payload"), std::string::npos);
}

TEST(WireTest, PayloadReaderRejectsTrailingGarbage) {
  std::vector<std::byte> payload;
  net::EncodeFetchRequest(5, &payload);
  payload.push_back(std::byte{0});  // one stray byte
  auto decoded = net::DecodeFetchRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, PayloadReaderRejectsHostileArrayCount) {
  // A node array claiming 2^31 entries backed by 4 bytes must fail cleanly
  // instead of resizing to gigabytes.
  std::vector<std::byte> payload(8);
  const uint32_t count = 1u << 31;
  std::memcpy(payload.data(), &count, sizeof(count));
  auto decoded = net::DecodeBatchRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, BatchReplyRoundTripsBilling) {
  BatchReply reply;
  reply.lists = {{1, 2, 3}, {}, {9}};
  reply.simulated_seconds = 0.125;
  reply.shards = {2, 0, 1};
  reply.BillStall(2, 0.5);
  std::vector<std::byte> payload;
  net::EncodeBatchReply(reply, &payload);
  auto decoded = net::DecodeBatchReply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->lists, reply.lists);
  EXPECT_EQ(decoded->shards, reply.shards);
  EXPECT_EQ(decoded->simulated_seconds, reply.simulated_seconds);
  ASSERT_EQ(decoded->shard_stalls.size(), 3u);
  EXPECT_EQ(decoded->shard_stalls[2], 0.5);
}

TEST(WireTest, StatsReplyRoundTrips) {
  net::StatsReply stats;
  stats.num_nodes = 1000;
  stats.server_seed = 0xabc;
  stats.restriction = 2;
  stats.max_neighbors = 16;
  stats.bidirectional = 1;
  stats.shards = 4;
  stats.requests_served = 77;
  stats.connections_accepted = 3;
  stats.origin = "sharded[degree:4](snapshot)";
  std::vector<std::byte> payload;
  net::EncodeStatsReply(stats, &payload);
  auto decoded = net::DecodeStatsReply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_nodes, stats.num_nodes);
  EXPECT_EQ(decoded->server_seed, stats.server_seed);
  EXPECT_EQ(decoded->restriction, stats.restriction);
  EXPECT_EQ(decoded->max_neighbors, stats.max_neighbors);
  EXPECT_EQ(decoded->shards, stats.shards);
  EXPECT_EQ(decoded->origin, stats.origin);
}

// --- timer wheel -------------------------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrderAndHonorsCancel) {
  net::TimerWheel wheel;
  std::vector<int> fired;
  wheel.Add(0.0, 0.05, [&] { fired.push_back(2); });
  const uint64_t early = wheel.Add(0.0, 0.02, [&] { fired.push_back(1); });
  const uint64_t cancelled = wheel.Add(0.0, 0.03, [&] { fired.push_back(9); });
  wheel.Cancel(cancelled);
  EXPECT_EQ(wheel.pending(), 2u);

  wheel.AdvanceTo(0.01);
  EXPECT_TRUE(fired.empty());
  wheel.AdvanceTo(0.06);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(wheel.pending(), 0u);
  wheel.Cancel(early);  // already fired: no-op, no crash
}

TEST(TimerWheelTest, CancelOfFiredOrUnknownIdIsATrueNoOp) {
  // Cancelling a fired, double-cancelled, or unknown handle must not eat
  // into pending() (which would let NextDelay report -1 with real timers
  // still resident) nor leave a ghost entry in the cancelled set.
  net::TimerWheel wheel;
  int fired = 0;
  const uint64_t early = wheel.Add(0.0, 0.02, [&] { ++fired; });
  const uint64_t cancelled = wheel.Add(0.0, 0.03, [&] { fired += 100; });
  wheel.Add(0.0, 0.5, [&] { ++fired; });
  wheel.Cancel(cancelled);
  wheel.AdvanceTo(0.05);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 1u);

  wheel.Cancel(early);      // already fired
  wheel.Cancel(cancelled);  // double cancel
  wheel.Cancel(987654);     // never issued
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_GT(wheel.NextDelay(0.05), 0.0);  // the live timer is still seen

  wheel.AdvanceTo(1.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, NextDelayTracksEarliestPending) {
  net::TimerWheel wheel;
  EXPECT_EQ(wheel.NextDelay(0.0), -1.0);
  wheel.Add(0.0, 0.5, [] {});
  const double delay = wheel.NextDelay(0.1);
  EXPECT_GT(delay, 0.0);
  EXPECT_LE(delay, 0.5);
  // A due timer yields a zero (not negative) delay.
  EXPECT_EQ(wheel.NextDelay(10.0), 0.0);
}

TEST(TimerWheelTest, WrapsAroundTheWheel) {
  // Deadlines more than kSlots ticks out must not fire a lap early.
  net::TimerWheel wheel;
  int fired = 0;
  const double far = net::TimerWheel::kTickSeconds *
                     (net::TimerWheel::kSlots + 10);
  wheel.Add(0.0, far, [&] { ++fired; });
  wheel.AdvanceTo(net::TimerWheel::kTickSeconds * net::TimerWheel::kSlots);
  EXPECT_EQ(fired, 0);
  wheel.AdvanceTo(far + 0.02);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, CancelReleasesTheEntryAtOnce) {
  // A cancel must free the timer and its callback now, not when the wheel
  // reaches the deadline's slot: a reactor arming a 5 s deadline per RPC
  // would otherwise carry every reply of the last 5 s as a dead entry.
  net::TimerWheel wheel;
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  const uint64_t id = wheel.Add(0.0, 5.0, [s = std::move(sentinel)] {});
  EXPECT_FALSE(watch.expired());
  wheel.Cancel(id);
  EXPECT_TRUE(watch.expired());

  // The RPC pattern with every reply inside one tick: nothing is left.
  for (int i = 0; i < 100'000; ++i) wheel.Cancel(wheel.Add(1.0, 5.0, [] {}));
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.NextDelay(1.0), -1.0);

  wheel.Add(1.0, 0.25, [] {});
  EXPECT_EQ(wheel.NextDelay(1.0), 0.25);
  EXPECT_EQ(wheel.pending(), 1u);
}

// A reference model of TimerWheel: the same tick rule (a timer fires on the
// first advance whose tick reaches its deadline rounded up to a tick, and
// never on an already-swept tick), kept in a multimap ordered by deadline
// instead of a wheel. Every call goes to both, and
// TimerWheelTest.DifferentialAgainstAMultimapModel compares them after each
// step.
class TimerWheelModel {
 public:
  explicit TimerWheelModel(uint64_t seed) : rng_(seed) {}

  // Adds a timer to both. Its callback records its tag and may, chosen
  // here, cancel an arbitrary tag (live, fired, cancelled or never issued)
  // and/or add a new timer from inside the firing advance.
  void Add(double delay) {
    const size_t tag = ids_.size();
    const double deadline = now_ + std::max(0.0, delay);
    const auto deadline_tick = static_cast<uint64_t>(
        std::ceil(deadline / net::TimerWheel::kTickSeconds));
    const uint64_t tick = std::max(deadline_tick, swept_ + 1);
    const bool cancel_from_cb = rng_.NextBool(0.2);
    const size_t cancel_tag = RandomTag();
    const bool add_from_cb = rng_.NextBool(0.2);
    const double add_delay = RandomDelay();
    ids_.push_back(wheel_.Add(now_, delay, [=, this] {
      fired_.push_back(tag);
      if (cancel_from_cb) Cancel(cancel_tag);
      if (add_from_cb) Add(add_delay);
    }));
    model_.emplace(deadline, Timer{tag, tick});
  }

  void Cancel(size_t tag) {
    // Tags past the end stand for handles the wheel never issued.
    wheel_.Cancel(tag < ids_.size() ? ids_[tag] : 1'000'000'000 + tag);
    for (auto it = model_.begin(); it != model_.end(); ++it) {
      if (it->second.tag == tag) {
        model_.erase(it);
        return;
      }
    }
  }

  // Advances both to `now` and checks the fired set.
  void AdvanceTo(double now) {
    now_ = now;
    const auto target =
        static_cast<uint64_t>(now / net::TimerWheel::kTickSeconds);
    std::vector<size_t> expected;
    if (target > swept_) {
      for (auto it = model_.begin(); it != model_.end();) {
        if (it->second.tick <= target) {
          expected.push_back(it->second.tag);
          it = model_.erase(it);
        } else {
          ++it;
        }
      }
      swept_ = target;
    }
    fired_.clear();
    wheel_.AdvanceTo(now);
    // Callbacks that fired may have added timers; those are not due yet.
    std::sort(expected.begin(), expected.end());
    std::vector<size_t> fired = fired_;
    std::sort(fired.begin(), fired.end());
    ASSERT_EQ(fired, expected) << "advance to " << now;
  }

  void ExpectAgrees() const {
    ASSERT_EQ(wheel_.pending(), model_.size()) << "at " << now_;
    const double want =
        model_.empty() ? -1.0 : std::max(0.0, model_.begin()->first - now_);
    ASSERT_EQ(wheel_.NextDelay(now_), want) << "at " << now_;
  }

  // One random step: mostly adds and cancels, with advances of every size
  // from zero to several laps.
  void Step() {
    const uint64_t op = rng_.NextBounded(10);
    if (op < 4) {
      Add(RandomDelay());
    } else if (op < 7) {
      Cancel(RandomTag());
    } else {
      AdvanceTo(now_ + RandomAdvance());
    }
  }

  size_t issued() const { return ids_.size(); }
  size_t pending() const { return model_.size(); }

 private:
  struct Timer {
    size_t tag;
    uint64_t tick;
  };

  size_t RandomTag() { return rng_.NextBounded(ids_.size() + 4); }

  double RandomDelay() {
    constexpr double kTick = net::TimerWheel::kTickSeconds;
    constexpr double kLap = kTick * net::TimerWheel::kSlots;
    switch (rng_.NextBounded(6)) {
      case 0: return 0.0;
      case 1: return rng_.NextDouble(0.0, kTick);
      case 2: return kTick * static_cast<double>(rng_.NextBounded(8));
      case 3: return rng_.NextDouble(0.0, 0.5);
      case 4: return 5.0;  // the RPC deadline
      default: return rng_.NextDouble(0.0, 3.0 * kLap);  // up to three laps
    }
  }

  double RandomAdvance() {
    constexpr double kTick = net::TimerWheel::kTickSeconds;
    constexpr double kLap = kTick * net::TimerWheel::kSlots;
    switch (rng_.NextBounded(5)) {
      case 0: return 0.0;
      case 1: return rng_.NextDouble(0.0, kTick);
      case 2: return kTick * static_cast<double>(rng_.NextBounded(4));
      case 3: return rng_.NextDouble(0.0, 0.2);
      default:  // rarely, a sleep past a whole lap
        return rng_.NextBool(0.1) ? rng_.NextDouble(kLap, 2.5 * kLap)
                                  : rng_.NextDouble(0.0, 1.0);
    }
  }

  Rng rng_;
  net::TimerWheel wheel_;
  std::multimap<double, Timer> model_;  // deadline -> pending timer
  std::vector<uint64_t> ids_;           // tag -> wheel handle
  std::vector<size_t> fired_;
  double now_ = 0.0;
  uint64_t swept_ = 0;
};

TEST(TimerWheelTest, DifferentialAgainstAMultimapModel) {
  for (uint64_t seed : {1u, 2u, 3u, 20260611u}) {
    SCOPED_TRACE(seed);
    TimerWheelModel model(seed);
    size_t peak = 0;
    for (int step = 0; step < 20'000; ++step) {
      model.Step();
      ASSERT_NO_FATAL_FAILURE(model.ExpectAgrees()) << "step " << step;
      peak = std::max(peak, model.pending());
    }
    // The walk exercised a populated wheel, not an empty one.
    EXPECT_GT(peak, 50u);
    EXPECT_GT(model.issued(), 5'000u);
  }
}

// --- event loop --------------------------------------------------------------

// The timer is due while a poster keeps the loop busy (a post every few
// microseconds, so each wait spins and ends within the budget): the loop
// still sweeps its timers, firing this one no earlier than its deadline
// and no later than the wheel tick it rounds up to. A loop that swept
// timers only when a wait timed out would fire it once the posts stop,
// half a second late.
TEST(EventLoopTest, PostRunsOnLoopThreadAndTimersFire) {
  auto loop_or = net::EventLoop::Create();
  ASSERT_TRUE(loop_or.ok());
  net::EventLoop& loop = **loop_or;

  std::atomic<bool> posted{false};
  std::atomic<bool> timed{false};
  std::atomic<double> armed_at{0.0};
  std::atomic<double> fired_at{0.0};
  constexpr double kDelay = 0.030;
  std::thread runner([&] { loop.Run(); });
  loop.Post([&] {
    EXPECT_TRUE(loop.in_loop_thread());
    posted = true;
    armed_at = loop.NowSeconds();
    loop.AddTimer(kDelay, [&] {
      fired_at = loop.NowSeconds();
      timed = true;
      loop.Stop();
    });
  });
  const auto stop_posting =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (!timed.load() && std::chrono::steady_clock::now() < stop_posting) {
    loop.Post([] {});
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(10);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  runner.join();
  EXPECT_TRUE(posted);
  EXPECT_TRUE(timed);
  const double late = fired_at.load() - (armed_at.load() + kDelay);
  EXPECT_GE(late, 0.0);
  EXPECT_LE(late, net::TimerWheel::kTickSeconds + 0.005);
}

// --- spin before parking -----------------------------------------------------

TEST(SpinGateTest, SpinsOnlyAfterShortWaitsAndBacksOffAfterAnOverrun) {
  using Clock = net::SpinGate::Clock;
  if (!net::SpinAllowed()) GTEST_SKIP() << "one CPU: OneCpuNeverSpins";
  const Clock::time_point t0 = Clock::now();
  const auto kShort = t0 + net::kSpinBeforePark;
  const auto kLong = t0 + 2 * net::kSpinBeforePark;
  net::SpinGate gate;
  const auto spins = [&] { return gate.SpinUntil(t0) == kShort; };
  EXPECT_TRUE(spins());  // a fresh waiter spins
  gate.Finish(t0, kShort);
  EXPECT_TRUE(spins());  // and keeps spinning while its waits are short
  // Each spin that overruns doubles the short waits in a row needed.
  for (uint32_t needed = 2; needed <= 2 * net::SpinGate::kMaxShortWaits;
       needed *= 2) {
    gate.Finish(t0, kLong);
    EXPECT_FALSE(spins()) << needed;
    gate.Finish(t0, kLong);  // a long parked wait does not back off more
    const uint32_t capped = std::min(needed, net::SpinGate::kMaxShortWaits);
    for (uint32_t i = 1; i < capped; ++i) {
      gate.Finish(t0, kShort);
      EXPECT_FALSE(spins()) << needed << " " << i;
    }
    gate.Finish(t0, kShort);
    EXPECT_TRUE(spins()) << needed;
  }
  // A spin that ends in time resets the backoff: one overrun now parks
  // for two short waits, not for kMaxShortWaits.
  gate.Finish(t0, kShort);
  gate.Finish(t0, kLong);
  gate.Finish(t0, kShort);
  EXPECT_FALSE(spins());
  gate.Finish(t0, kShort);
  EXPECT_TRUE(spins());
}

TEST(SpinGateTest, OneCpuNeverSpins) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        // A fresh process: SpinAllowed() reads the affinity set here,
        // which keeps only the first CPU this process may run on.
        cpu_set_t cpus;
        CPU_ZERO(&cpus);
        if (::sched_getaffinity(0, sizeof(cpus), &cpus) != 0) std::_Exit(2);
        int first = 0;
        while (!CPU_ISSET(first, &cpus)) ++first;
        CPU_ZERO(&cpus);
        CPU_SET(first, &cpus);
        if (::sched_setaffinity(0, sizeof(cpus), &cpus) != 0) std::_Exit(2);
        net::SpinGate gate;
        const auto t0 = net::SpinGate::Clock::now();
        const bool fresh_parks = gate.SpinUntil(t0) == t0;
        gate.Finish(t0, t0);
        std::_Exit(fresh_parks && gate.SpinUntil(t0) == t0 &&
                           !net::SpinAllowed()
                       ? 0
                       : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// A CFS quota caps the CPUs the affinity mask allows; under two, nothing
// spins (SpinAllowed() reads the process's own cgroup files).
TEST(SpinGateTest, CpuQuotaCapsTheUsableCpus) {
  EXPECT_EQ(net::UsableCpus(4, ""), 4.0);             // no cgroup file
  EXPECT_EQ(net::UsableCpus(4, "max 100000"), 4.0);   // v2, no quota
  EXPECT_EQ(net::UsableCpus(4, "-1 100000"), 4.0);    // v1, no quota
  EXPECT_EQ(net::UsableCpus(4, "100000 100000"), 1.0);  // --cpus=1
  EXPECT_EQ(net::UsableCpus(4, "150000 100000"), 1.5);
  EXPECT_EQ(net::UsableCpus(2, "800000 100000"), 2.0);  // mask is smaller
}

// --- server over real sockets ------------------------------------------------

// `timeout` bounds each blocking read: tests must never hang on a dead
// server.
int ConnectTo(int port,
              std::chrono::seconds timeout = std::chrono::seconds(5)) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)), 0)
      << std::strerror(errno);
  const timeval limit{static_cast<time_t>(timeout.count()), 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  return fd;
}

void SendAll(int fd, std::span<const std::byte> bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }
}

// Reads frames until `count` have been decoded (owned payload copies).
struct OwnedFrame {
  uint16_t opcode = 0;
  uint64_t request_id = 0;
  StatusCode status = StatusCode::kOk;
  std::vector<std::byte> payload;
};

std::vector<OwnedFrame> ReadFrames(int fd, size_t count) {
  std::vector<OwnedFrame> frames;
  std::vector<std::byte> in;
  while (frames.size() < count) {
    DecodedFrame frame;
    auto taken = net::DecodeFrame(in, &frame);
    EXPECT_TRUE(taken.ok()) << taken.status().ToString();
    if (!taken.ok()) return frames;
    if (*taken > 0) {
      frames.push_back(OwnedFrame{
          frame.opcode, frame.request_id, frame.status,
          std::vector<std::byte>(frame.payload.begin(), frame.payload.end())});
      in.erase(in.begin(), in.begin() + static_cast<ptrdiff_t>(*taken));
      continue;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_GT(n, 0) << "server closed or timed out";
    if (n <= 0) return frames;
    const std::byte* bytes = reinterpret_cast<const std::byte*>(buf);
    in.insert(in.end(), bytes, bytes + n);
  }
  return frames;
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(AccessOptions options = {}) {
    graph_ = testing::MakeTestBA(60, 3, 11);
    backend_ = std::make_shared<InMemoryBackend>(&graph_, options);
    net::ServerOptions server_options;
    server_options.threads = 2;
    auto server = net::WnwServer::Start(backend_, server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  Graph graph_;
  std::shared_ptr<InMemoryBackend> backend_;
  std::unique_ptr<net::WnwServer> server_;
};

TEST_F(ServerTest, PingStatsAndFetchRoundTrip) {
  StartServer();
  const int fd = ConnectTo(server_->port());

  SendAll(fd, EncodeOne(Opcode::kPing, 1));
  std::vector<std::byte> fetch;
  net::EncodeFetchRequest(3, &fetch);
  SendAll(fd, EncodeOne(Opcode::kFetchNeighbors, 2, fetch));
  SendAll(fd, EncodeOne(Opcode::kStats, 3));

  const auto frames = ReadFrames(fd, 3);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].request_id, 1u);
  EXPECT_TRUE(frames[0].payload.empty());

  EXPECT_EQ(frames[1].request_id, 2u);
  auto neighbors = net::DecodeNeighborsReply(frames[1].payload);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_EQ(neighbors->neighbors, testing::ToVec(graph_.Neighbors(3)));

  auto stats = net::DecodeStatsReply(frames[2].payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_nodes, graph_.num_nodes());
  EXPECT_EQ(stats->origin, "memory");
  ::close(fd);
}

TEST_F(ServerTest, PipelinedRequestsInterleaveAcrossOpcodes) {
  StartServer();
  const int fd = ConnectTo(server_->port());

  // Ship 20 requests back to back before reading a byte: fetches, pings,
  // and a batch, with distinct ids. Responses arrive in order on one
  // connection; the ids prove which answer belongs to which question.
  std::vector<std::byte> wire;
  for (uint64_t id = 1; id <= 20; ++id) {
    if (id % 5 == 0) {
      net::Frame frame;
      frame.opcode = Opcode::kPing;
      frame.request_id = id;
      net::EncodeFrame(frame, &wire);
      continue;
    }
    std::vector<std::byte> payload;
    net::EncodeFetchRequest(static_cast<NodeId>(id % graph_.num_nodes()),
                            &payload);
    net::Frame frame;
    frame.opcode = Opcode::kFetchNeighbors;
    frame.request_id = id;
    frame.payload = payload;
    net::EncodeFrame(frame, &wire);
  }
  SendAll(fd, wire);

  const auto frames = ReadFrames(fd, 20);
  ASSERT_EQ(frames.size(), 20u);
  for (uint64_t id = 1; id <= 20; ++id) {
    const OwnedFrame& frame = frames[id - 1];
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(frame.status, StatusCode::kOk);
    if (id % 5 != 0) {
      auto reply = net::DecodeNeighborsReply(frame.payload);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->neighbors,
                testing::ToVec(graph_.Neighbors(
                    static_cast<NodeId>(id % graph_.num_nodes()))));
    }
  }
  ::close(fd);
}

TEST_F(ServerTest, BatchMatchesBackend) {
  StartServer();
  const int fd = ConnectTo(server_->port());
  const std::vector<NodeId> nodes = {5, 0, 17, 5};
  std::vector<std::byte> payload;
  net::EncodeBatchRequest(nodes, &payload);
  SendAll(fd, EncodeOne(Opcode::kFetchBatch, 9, payload));
  const auto frames = ReadFrames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  auto reply = net::DecodeBatchReply(frames[0].payload);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->lists.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(reply->lists[i], testing::ToVec(graph_.Neighbors(nodes[i])));
  }
  ::close(fd);
}

TEST_F(ServerTest, BackendErrorsTravelAsStatusFrames) {
  StartServer();
  const int fd = ConnectTo(server_->port());
  std::vector<std::byte> payload;
  net::EncodeFetchRequest(static_cast<NodeId>(graph_.num_nodes() + 5),
                          &payload);
  SendAll(fd, EncodeOne(Opcode::kFetchNeighbors, 4, payload));
  const auto frames = ReadFrames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].status, StatusCode::kOutOfRange);
  EXPECT_FALSE(frames[0].payload.empty());  // the status message rides along
  ::close(fd);
}

TEST_F(ServerTest, UnknownOpcodeGetsErrorFrameNotDisconnect) {
  StartServer();
  const int fd = ConnectTo(server_->port());
  SendAll(fd, EncodeOne(static_cast<Opcode>(99), 6));
  const auto frames = ReadFrames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].status, StatusCode::kInvalidArgument);
  // The connection survives a semantic error: a ping still answers.
  SendAll(fd, EncodeOne(Opcode::kPing, 7));
  const auto after = ReadFrames(fd, 1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].request_id, 7u);
  ::close(fd);
}

TEST_F(ServerTest, FramingViolationClosesConnection) {
  StartServer();
  const int fd = ConnectTo(server_->port());
  std::vector<std::byte> garbage(net::kFrameHeaderBytes, std::byte{0xee});
  SendAll(fd, garbage);
  // The server must close; recv sees EOF, not a hang.
  char buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_EQ(n, 0);
  ::close(fd);

  // And the violation is counted.
  for (int i = 0; i < 100 && server_->counters().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->counters().protocol_errors, 1u);
}

TEST_F(ServerTest, MidFrameCloseIsHarmless) {
  StartServer();
  // A client that dies after half a header must not wedge or crash the
  // reactor — the next client is served normally.
  {
    const int fd = ConnectTo(server_->port());
    const std::vector<std::byte> half =
        EncodeOne(Opcode::kPing, 1);  // encode, then send only a prefix
    SendAll(fd, std::span<const std::byte>(half.data(), 9));
    ::close(fd);
  }
  const int fd = ConnectTo(server_->port());
  SendAll(fd, EncodeOne(Opcode::kPing, 2));
  const auto frames = ReadFrames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].request_id, 2u);
  EXPECT_EQ(server_->counters().protocol_errors, 0u);
  ::close(fd);
}

TEST_F(ServerTest, ShutdownDrainsAndCounts) {
  StartServer();
  const int fd = ConnectTo(server_->port());
  SendAll(fd, EncodeOne(Opcode::kPing, 1));
  ASSERT_EQ(ReadFrames(fd, 1).size(), 1u);
  server_->Shutdown();
  // After shutdown the connection is closed...
  char buf[64];
  EXPECT_LE(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
  // ...and new connections are refused.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(static_cast<uint16_t>(server_->port()));
  inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr);
  EXPECT_NE(::connect(probe, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
            0);
  ::close(probe);
  const auto counters = server_->counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.requests_served, 1u);
  server_->Shutdown();  // idempotent
}

TEST(ServerStartFailureTest, FailedStartReturnsStatusAndDestructsCleanly) {
  // When Start() fails before the reactor threads launch, the error must
  // surface as a clean Status and destroying the half-built server must not
  // touch loops that never existed.
  Graph graph = testing::MakeTestBA(20, 3, 7);
  auto backend = std::make_shared<InMemoryBackend>(&graph, AccessOptions{});

  net::ServerOptions bad_addr;
  bad_addr.bind_addr = "not-an-address";
  auto server = net::WnwServer::Start(backend, bad_addr);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);

  // Occupy a loopback port, then ask the server to bind it: EADDRINUSE.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(holder, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  net::ServerOptions busy;
  busy.port = ntohs(addr.sin_port);
  auto in_use = net::WnwServer::Start(backend, busy);
  ASSERT_FALSE(in_use.ok());
  EXPECT_EQ(in_use.status().code(), StatusCode::kIOError);
  ::close(holder);
}

TEST_F(ServerTest, BackpressurePausesAndResumesUnderPipelinedFlood) {
  StartServer();
  // ~25 MB through an instrumented server on a loaded machine can stall one
  // read for longer than the default hang guard: sanitized builds wait 6x.
  const int fd = ConnectTo(server_->port(),
                           std::chrono::seconds(testing::kSanitized ? 30 : 5));
  // Pipeline enough FetchBatch requests that the replies (~25 MB in total)
  // overflow the server's 16 MiB output high-water mark while the client
  // reads nothing: the server must pause reading instead of buffering
  // without bound, then resume and answer every request as the client
  // drains its responses.
  constexpr uint64_t kRequests = 120;
  std::vector<NodeId> nodes(4096);
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<NodeId>(i % graph_.num_nodes());
  }
  std::vector<std::byte> payload;
  net::EncodeBatchRequest(nodes, &payload);
  std::vector<std::byte> wire;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    net::Frame frame;
    frame.opcode = Opcode::kFetchBatch;
    frame.request_id = id;
    frame.payload = payload;
    net::EncodeFrame(frame, &wire);
  }
  // The send must overlap the reads: once the server pauses reading, a
  // blocking send from this thread would deadlock against our own
  // un-drained replies.
  std::thread sender([&] { SendAll(fd, wire); });
  const auto frames = ReadFrames(fd, kRequests);
  sender.join();
  ASSERT_EQ(frames.size(), kRequests);
  for (uint64_t id = 1; id <= kRequests; ++id) {
    EXPECT_EQ(frames[id - 1].request_id, id);
    EXPECT_EQ(frames[id - 1].status, StatusCode::kOk);
  }
  ::close(fd);
}

// --- codec property/fuzz sweep -----------------------------------------------
//
// Deterministic (seeded Rng) property tests: whatever bytes a peer sends —
// truncated frames, flipped bits, hostile length/count fields, plain random
// garbage — every decoder must come back with a Status or a value, never a
// crash, hang, or out-of-bounds read (ASan/UBSan in CI make "never" mean
// something). And every VALID frame must round-trip losslessly.

std::vector<std::byte> RandomPayload(Rng& rng, size_t max_len) {
  std::vector<std::byte> bytes(rng.NextBounded(max_len + 1));
  for (std::byte& b : bytes) {
    b = static_cast<std::byte>(rng.NextBounded(256));
  }
  return bytes;
}

TEST(WireFuzz, RandomValidFramesRoundTripLosslessly) {
  Rng rng(0xF1Au);
  for (int trial = 0; trial < 200; ++trial) {
    Frame frame;
    frame.opcode = static_cast<Opcode>(1 + rng.NextBounded(4));
    frame.request_id = rng.Next();
    frame.status = static_cast<StatusCode>(rng.NextBounded(10));
    const std::vector<std::byte> payload = RandomPayload(rng, 2048);
    frame.payload = payload;

    std::vector<std::byte> wire;
    net::EncodeFrame(frame, &wire);
    DecodedFrame decoded;
    auto taken = net::DecodeFrame(wire, &decoded);
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    ASSERT_EQ(*taken, wire.size());
    EXPECT_EQ(decoded.opcode, static_cast<uint16_t>(frame.opcode));
    EXPECT_EQ(decoded.request_id, frame.request_id);
    EXPECT_EQ(decoded.status, frame.status);
    ASSERT_EQ(decoded.payload.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           decoded.payload.begin()));
  }
}

TEST(WireFuzz, PipelinedRandomFramesDecodeInOrder) {
  Rng rng(0xBEEFu);
  std::vector<std::byte> wire;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 32; ++i) {
    Frame frame;
    frame.opcode = Opcode::kFetchNeighbors;
    frame.request_id = rng.Next();
    const std::vector<std::byte> payload = RandomPayload(rng, 128);
    frame.payload = payload;
    net::EncodeFrame(frame, &wire);
    ids.push_back(frame.request_id);
  }
  size_t consumed = 0;
  for (uint64_t id : ids) {
    DecodedFrame decoded;
    auto taken = net::DecodeFrame(
        std::span<const std::byte>(wire).subspan(consumed), &decoded);
    ASSERT_TRUE(taken.ok());
    ASSERT_GT(*taken, 0u);
    EXPECT_EQ(decoded.request_id, id);
    consumed += *taken;
  }
  EXPECT_EQ(consumed, wire.size());
}

TEST(WireFuzz, EveryTruncationIsIncompleteOrPoisonNeverACrash) {
  Rng rng(0x7A7Au);
  Frame frame;
  frame.opcode = Opcode::kFetchBatch;
  frame.request_id = 0x1122334455667788ull;
  const std::vector<std::byte> payload = RandomPayload(rng, 200);
  frame.payload = payload;
  std::vector<std::byte> wire;
  net::EncodeFrame(frame, &wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    DecodedFrame decoded;
    auto taken = net::DecodeFrame(
        std::span<const std::byte>(wire).first(len), &decoded);
    // A prefix of a valid frame is either "incomplete, wait for more" or —
    // never — an error: no prefix can look malformed.
    ASSERT_TRUE(taken.ok()) << "prefix of " << len << " bytes poisoned: "
                            << taken.status().ToString();
    EXPECT_EQ(*taken, 0u) << "prefix of " << len << " bytes consumed";
  }
}

TEST(WireFuzz, RandomByteFlipsNeverCrashTheFrameDecoder) {
  Rng rng(0xC0DEu);
  for (int trial = 0; trial < 500; ++trial) {
    Frame frame;
    frame.opcode = Opcode::kStats;
    frame.request_id = rng.Next();
    const std::vector<std::byte> payload = RandomPayload(rng, 64);
    frame.payload = payload;
    std::vector<std::byte> wire;
    net::EncodeFrame(frame, &wire);

    const size_t pos = rng.NextBounded(wire.size());
    wire[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));

    DecodedFrame decoded;
    auto taken = net::DecodeFrame(wire, &decoded);
    if (taken.ok()) {
      // A flip in the payload (or a shrunk length) can still parse; it must
      // never claim more bytes than the buffer holds.
      EXPECT_LE(*taken, wire.size());
    } else {
      EXPECT_EQ(taken.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireFuzz, RandomGarbageThroughEveryPayloadCodecReturnsStatus) {
  Rng rng(0xD15Cu);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<std::byte> garbage = RandomPayload(rng, 96);
    // Each decoder either parses or reports InvalidArgument; under
    // ASan/UBSan this sweep also proves no out-of-bounds reads.
    (void)net::DecodeFetchRequest(garbage);
    (void)net::DecodeNeighborsReply(garbage);
    (void)net::DecodeBatchRequest(garbage);
    (void)net::DecodeBatchReply(garbage);
    (void)net::DecodeStatsReply(garbage);

    DecodedFrame decoded;
    (void)net::DecodeFrame(garbage, &decoded);
  }
}

TEST(WireFuzz, HostileArrayCountsAreRejectedNotAllocated) {
  // A node array claims 2^32-1 entries but carries 4 bytes: the reader must
  // bounds-check the count against the remaining payload, not trust it.
  std::vector<std::byte> payload;
  net::PayloadWriter writer(&payload);
  writer.PutU32(0xFFFFFFFFu);  // count
  writer.PutU32(7u);           // one lonely entry
  auto batch_request = net::DecodeBatchRequest(payload);
  ASSERT_FALSE(batch_request.ok());
  EXPECT_EQ(batch_request.status().code(), StatusCode::kInvalidArgument);

  // The same hostile count inside a neighbors reply (after its fixed
  // shard/simulated/serial prefix).
  std::vector<std::byte> neighbors_payload;
  net::PayloadWriter neighbors_writer(&neighbors_payload);
  neighbors_writer.PutU32(0);      // shard
  neighbors_writer.PutDouble(0.0);  // simulated
  neighbors_writer.PutDouble(0.0);  // serial
  neighbors_writer.PutU32(0xFFFFFFF0u);  // count with no bytes behind it
  auto neighbors = net::DecodeNeighborsReply(neighbors_payload);
  ASSERT_FALSE(neighbors.ok());
  EXPECT_EQ(neighbors.status().code(), StatusCode::kInvalidArgument);

  // A hostile string length in the stats reply.
  std::vector<std::byte> stats_payload;
  net::PayloadWriter stats_writer(&stats_payload);
  stats_writer.PutU64(100);  // num_nodes
  stats_writer.PutU64(1);    // server_seed
  stats_writer.PutU32(0);    // restriction
  stats_writer.PutU32(0);    // max_neighbors
  stats_writer.PutU32(0);    // bidirectional
  stats_writer.PutU32(0);    // shards
  stats_writer.PutU64(0);    // requests_served
  stats_writer.PutU64(0);    // connections_accepted
  stats_writer.PutU32(0xFFFFFF00u);  // origin-string length, no bytes
  auto stats = net::DecodeStatsReply(stats_payload);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFuzz, TrailingGarbageAfterAValidPayloadIsRejected) {
  std::vector<std::byte> payload;
  net::EncodeFetchRequest(42, &payload);
  payload.push_back(std::byte{0xAB});
  auto decoded = net::DecodeFetchRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFuzz, RandomValidBatchRepliesRoundTrip) {
  Rng rng(0x5EEDu);
  for (int trial = 0; trial < 100; ++trial) {
    BatchReply reply;
    const size_t lists = rng.NextBounded(8);
    for (size_t i = 0; i < lists; ++i) {
      std::vector<NodeId> list(rng.NextBounded(16));
      for (NodeId& u : list) u = static_cast<NodeId>(rng.NextBounded(1000));
      reply.shards.push_back(static_cast<int32_t>(rng.NextBounded(4)));
      reply.lists.push_back(std::move(list));
      if (rng.NextBounded(2) == 0) {
        reply.BillStall(reply.shards.back(), rng.NextDouble());
      }
    }
    reply.simulated_seconds = rng.NextDouble();

    std::vector<std::byte> payload;
    net::EncodeBatchReply(reply, &payload);
    auto decoded = net::DecodeBatchReply(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->lists, reply.lists);
    EXPECT_EQ(decoded->shards, reply.shards);
    EXPECT_EQ(decoded->simulated_seconds, reply.simulated_seconds);
    ASSERT_EQ(decoded->shard_stalls.size(), reply.shard_stalls.size());
    for (size_t i = 0; i < reply.shard_stalls.size(); ++i) {
      EXPECT_EQ(decoded->shard_stalls[i], reply.shard_stalls[i]);
    }
  }
}

}  // namespace
}  // namespace wnw
