// RemoteBackend: the AccessBackend whose origin is a wnw_serve daemon on
// the other side of a TCP connection — the paper's actual setting, where
// every neighbor query is a remote API round trip and sampling cost is
// dominated by the wire, not the lookup.
//
// It slots into the existing decorator stack unchanged: AccessInterface,
// the shared QueryCache, and the CompletionExecutor window all compose over
// it exactly as over InMemoryBackend, because the Stats handshake ships the
// server's scenario descriptor (node count, §6.3.1 restriction, server
// seed) at connect time — options() and deterministic() answer locally.
// Counter-mode restriction randomness (keyed on (seed, node, call#) server
// side) is what makes the acceptance gate possible: every registered
// sampler draws byte-identical samples at identical query cost against a
// loopback wnw_serve vs the in-process origin.
//
// Transport: a fixed pool of connections multiplexed by one client-side
// event-loop thread. Requests pipeline — any number of calls from any
// number of sessions are in flight per connection, demultiplexed by
// request_id — so N concurrent sessions cost N in-flight frames, not N
// sockets or N threads.
//
// A submitter (any thread) appends the request frame to a pool connection
// and posts it to the loop; everything after that runs on the loop thread:
// the non-blocking connect when the connection is down (frames queued
// meanwhile flush once it is up), the deadline timer (a late reply is
// dropped by id, never misdelivered), the reply, and the retry. Transient
// failures (connect refused/reset/timed out, connection closed, deadline
// expiry) retry behind a loop backoff timer, and every retry may reconnect,
// up to a bounded budget before surfacing as Unavailable /
// DeadlineExceeded. Server-side backend errors (e.g. OutOfRange for a bad
// node id) are rebuilt from the wire status verbatim and never retried.
//
// A blocking method (any thread but the loop's) starts on the first pool
// connection with nothing in flight, not the next in rotation, so a lone
// serial caller keeps one connection (and one server reactor) busy. On an
// idle connection — up, nothing pending, queued, unflushed or unread — it
// makes its first attempt itself: it takes the connection's socket for
// one round trip, writes its frame, polls under the attempt's deadline
// and reads its own reply, so the loop thread is neither woken nor
// waited on. Only an OK reply completes there. Every other outcome
// (socket error, EOF, framing error, expired deadline, error reply) is
// handed to the loop, which retries it like any other attempt. On a busy
// connection, and on every retry, the blocking call is a completion plus
// a wait on the caller's thread.
//
// The caller's poll spins before it parks: it polls with timeout 0 (and
// yields the CPU between polls) for up to net::kSpinBeforePark, then
// sleeps in poll for the rest of the deadline. A calling thread spins only
// if its previous round trip, spin included, ended within that budget (a
// thread-local net::SpinGate), so back-to-back fetches to a loopback or
// LAN server skip the wake-up of a parked thread, while fetches to a
// millisecond-RTT origin park at once.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "access/backend.h"
#include "net/event_loop.h"

namespace wnw {

struct RemoteBackendOptions {
  /// Connection-pool size. Calls round-robin across the pool; each
  /// connection pipelines any number of in-flight requests, so this trades
  /// head-of-line blocking against fd count, not concurrency.
  int connections = 2;

  /// Per-request deadline. It covers one attempt, including a reconnect
  /// the attempt waits on, but not the retry budget.
  double deadline_ms = 5000.0;

  /// Retry budget beyond the first attempt for transient errors
  /// (Unavailable, DeadlineExceeded). 0 = fail fast.
  int max_retries = 2;

  /// Backoff before retry attempt k (1-based): k * rpc_backoff_ms.
  double retry_backoff_ms = 50.0;

  /// TCP connect timeout per connection attempt, enforced by a loop timer.
  double connect_timeout_ms = 2000.0;
};

class RemoteBackend final : public AccessBackend {
 public:
  /// Connects to "host:port" (dotted IPv4 or "localhost"), performs the
  /// Stats handshake, and returns the ready backend. Unavailable when the
  /// server cannot be reached within the retry budget; InvalidArgument for
  /// a malformed address (checked before any connect is tried) or a peer
  /// that is not speaking the wnw protocol.
  static Result<std::shared_ptr<RemoteBackend>> Connect(
      const std::string& addr, RemoteBackendOptions options = {});

  ~RemoteBackend() override;

  std::string_view name() const override { return name_; }  // "remote(addr)"
  uint64_t num_nodes() const override { return num_nodes_; }
  const AccessOptions& options() const override { return access_; }
  const RemoteBackend* AsRemote() const override { return this; }

  Result<FetchReply> FetchNeighbors(NodeId u) override;

  /// Completion-native fetch: queues the request frame and returns without
  /// waiting or connecting; the client event loop invokes `done` once the
  /// reply arrives or the retry budget is spent. Safe to call from any
  /// thread, `done` included. The caller must keep this backend alive until
  /// the completion fires (CompletionExecutor holds the operation's
  /// shared_ptr, so stacks composed through it satisfy this for free).
  void FetchNeighborsCompletion(NodeId u, CompletionCallback done) override;

  /// One FetchBatch frame per call: the server runs the whole batch behind
  /// a single round trip and its BatchReply — per-request shards, stall
  /// table, slowest-shard billing — is decoded verbatim, so remote batch
  /// accounting matches the in-process decorators bit for bit.
  Result<BatchReply> FetchBatch(std::span<const NodeId> nodes) override;

  /// Origin shard count reported by the server's handshake (0 = unsharded).
  int origin_shards() const { return origin_shards_; }

  /// The server-side backend stack name from the handshake, e.g.
  /// "sharded[degree:4](snapshot)".
  const std::string& origin_name() const { return origin_name_; }

  const std::string& address() const { return addr_; }

  /// A fresh Stats round trip: cumulative server counters (requests served,
  /// connections accepted). For tooling; the handshake fields are cached.
  struct ServerCounters {
    uint64_t requests_served = 0;
    uint64_t connections_accepted = 0;
  };
  Result<ServerCounters> FetchServerCounters();

  // Cumulative client telemetry across every session sharing this backend
  // (the per-session CostMeter stays wire-agnostic).
  uint64_t rpcs() const { return rpcs_.load(std::memory_order_relaxed); }
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Wire bytes sent + received, frame headers included.
  uint64_t wire_bytes() const {
    return bytes_sent_.load(std::memory_order_relaxed) +
           bytes_received_.load(std::memory_order_relaxed);
  }

  const RemoteBackendOptions& remote_options() const { return options_; }

 private:
  struct Conn;
  struct Rpc;

  RemoteBackend(std::string addr, const sockaddr_in& peer,
                RemoteBackendOptions options);

  Status Handshake();

  /// The blocking form of an RPC: makes the first attempt on the caller's
  /// thread when CallerConn() is idle (CallerRoundTrip), otherwise
  /// submits it and waits on the caller's thread for the completion.
  /// Returns the reply payload.
  Result<std::vector<std::byte>> RoundTrip(uint16_t opcode,
                                           std::vector<std::byte> payload);

  /// The first attempt of a blocking RPC, driven by its caller. When `conn`
  /// is idle, holds its socket for one round trip (spinning before it
  /// parks, as the calling thread's SpinGate allows) and returns true with
  /// an OK reply of the right opcode in *reply; any other outcome is handed
  /// to the loop (returns false, `rpc->done` fires later). When `conn` is
  /// busy, it is StartAttempt on `conn` (returns false).
  bool CallerRoundTrip(Conn* conn, const std::shared_ptr<Rpc>& rpc,
                       std::vector<std::byte>* reply);

  /// The connection a blocking call starts on: the first one in the pool
  /// that is up with nothing in flight, else NextConn(). A lone serial
  /// caller so keeps to one connection, and the server reactor that owns
  /// it sees every request back to back (its spin pays; see
  /// net::kSpinBeforePark), while concurrent callers spread out.
  Conn* CallerConn();

  /// The next pool connection, round-robin.
  Conn* NextConn();

  /// Queues one attempt's frame on `conn`, registers it as pending, and
  /// posts Dispatch. Never fails and never blocks: a down connection is
  /// reconnected by the loop. Called by submitters for the first attempt
  /// (which counts the RPC) and by the loop for retries; `rpc->done` fires
  /// exactly once, on the loop thread.
  void StartAttempt(std::shared_ptr<Rpc> rpc, Conn* conn);

  /// Terminal demux for an attempt's outcome: completes the RPC, or starts
  /// the next attempt behind a loop backoff timer while the error is
  /// transient and budget remains.
  void FinishOrRetry(std::shared_ptr<Rpc> rpc, Status status,
                     uint16_t opcode, std::span<const std::byte> payload);

  // Loop-thread handlers.
  void Dispatch(Conn* conn, uint64_t request_id);
  void StartConnect(Conn* conn);
  void FinishConnect(Conn* conn);
  void OnConnIo(Conn* conn, uint32_t events);
  void ProcessConnInput(Conn* conn);
  void FlushConn(Conn* conn);  // a no-op while a caller holds the socket
  void FlushLocked(Conn* conn);

  // The holder of conn->io_mu, loop or caller, moves the bytes. ReadConn
  // receives what the socket holds into conn->in; WriteConn sends
  // conn->flushing until it is sent or the socket is full. Both return
  // Unavailable on a socket error, ReadConn also on EOF.
  Status ReadConn(Conn* conn);
  Status WriteConn(Conn* conn);
  void KillConn(Conn* conn, const Status& why);
  void TimeoutCall(Conn* conn, uint64_t request_id);
  std::shared_ptr<Rpc> TakePending(Conn* conn, uint64_t request_id);

  std::string addr_;
  sockaddr_in peer_;  // addr_, parsed once by Connect
  std::string name_;
  RemoteBackendOptions options_;

  // Handshake results.
  uint64_t num_nodes_ = 0;
  AccessOptions access_;
  int origin_shards_ = 0;
  std::string origin_name_;

  std::unique_ptr<net::EventLoop> loop_;
  std::thread loop_thread_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> next_conn_{0};
  std::atomic<bool> destroyed_{false};

  std::atomic<uint64_t> rpcs_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

}  // namespace wnw
