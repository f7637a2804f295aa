// TCP transport on epoll event-loop lanes.
//
// Replica-to-replica traffic keeps one dialed socket per (peer, lane) and
// direction — the multi-connection setup of paper §4.2.3 — while the
// client-facing side multiplexes every accepted connection onto a small
// set of event loops (EventLoop), each run by its own lane thread or by
// the COP pillar that claimed it (claim_lane), with batched reads,
// writev-coalesced replies and admission control; see
// src/transport/event_loop.hpp and docs/transport.md. Frames are
// length-prefixed; a small hello header identifies (sender, lane) after
// connect. Replies to clients travel back over the connection the client
// dialed (no dial-back, no client listen port), which is what lets one
// replica serve tens of thousands of clients within its fd budget.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.hpp"
#include "common/threading.hpp"
#include "transport/event_loop.hpp"
#include "transport/transport.hpp"

namespace copbft::transport {

struct TcpPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Writes all `len` bytes to `fd` (MSG_NOSIGNAL), retrying on EINTR.
bool write_all_fd(int fd, const Byte* data, std::size_t len);

/// Frame bound for replica peers (state-transfer chunks are large).
inline constexpr std::uint32_t kMaxFrameReplica = 64u << 20;
/// Frame bound for client peers (requests are small; a hostile client
/// must not make the replica allocate big buffers).
inline constexpr std::uint32_t kMaxFrameClient = 1u << 20;
/// Nodes at or above this id are clients: sheddable admission, client
/// frame bound, reply routing over their accepted connection. Matches
/// protocol::kClientIdBase without a protocol-layer dependency
/// (transport_test asserts that the two agree).
inline constexpr crypto::KeyNodeId kClientNodeFloor = 1000;
/// A client dials the replicas one by one on its first send, so a replica
/// can execute the client's first request, learned from the leader's
/// pre-prepare, before the client's hello reaches it. A reply to a client
/// that has never said hello waits for the hello this long, and one
/// client's hold takes at most this many replies.
inline constexpr std::uint64_t kHeldReplyUs = 1'000'000;
inline constexpr std::size_t kHeldRepliesPerClient = 256;

struct TcpOptions {
  /// Event loops; connections are multiplexed over them by
  /// lane % lane_threads. Replicas typically run one per pillar (NP), and
  /// a COP replica's pillars claim and drive them.
  std::uint32_t lane_threads = 2;
  EventLoopOptions loop;
};

class TcpTransport final : public Transport {
 public:
  /// `self` is this node's id; `listen_port` may be 0 for client nodes
  /// that only initiate connections; `peers` maps node ids to addresses.
  TcpTransport(crypto::KeyNodeId self, std::uint16_t listen_port,
               std::map<crypto::KeyNodeId, TcpPeer> peers,
               TcpOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds the listener (if any) and starts the event-loop lane threads.
  bool start();

  /// Tunes the bounded connect retry (see connect_with_retry). Call before
  /// traffic starts; tests shrink the schedule to keep failures fast.
  void set_connect_retry(int attempts, std::uint32_t base_delay_ms) {
    connect_attempts_ = attempts;
    connect_base_delay_ms_ = base_delay_ms;
  }

  void register_sink(LaneId lane, std::shared_ptr<FrameSink> sink) override;
  bool send(crypto::KeyNodeId to, LaneId lane, Bytes frame) override;
  void shutdown() override;
  /// Loop `lane % lane_threads`, if it is running and nobody drives it
  /// yet; its lane thread exits and the caller drives it instead.
  std::shared_ptr<EventLoop> claim_lane(LaneId lane) override;

  /// A lightweight multiplexed client: a Transport facade that shares
  /// this transport's sockets-and-loops machinery but dials with its own
  /// node identity and receives on its own sink. Thousands of endpoints
  /// ride on one TcpTransport's lane threads — the client side of
  /// connection multiplexing (no per-client transport, no per-client
  /// receive thread). The endpoint stays valid until its shutdown() or
  /// the owning transport's.
  std::shared_ptr<Transport> client_endpoint(crypto::KeyNodeId node);

 private:
  class Endpoint;
  friend class Endpoint;
  friend class EventLoop;

  /// (local identity, remote node, lane) -> dialed connection.
  using DialKey = std::tuple<crypto::KeyNodeId, crypto::KeyNodeId, LaneId>;
  /// A reply to a client that has not said hello to this node yet.
  struct HeldReply {
    std::uint64_t expires_us = 0;
    LaneId lane = 0;
    Bytes frame;
  };
  struct Route {
    std::shared_ptr<Conn> conn;
    /// Dead-peer backoff while `conn` is null (a dial failed or the conn
    /// closed): sends fail at once before this time (now_us), then one
    /// sender re-dials with a single attempt.
    std::uint64_t redial_at_us = 0;
  };

  int connect_to(const TcpPeer& peer);
  int connect_with_retry(const TcpPeer& peer, int attempts);
  bool send_from(crypto::KeyNodeId from, crypto::KeyNodeId to, LaneId lane,
                 Bytes frame);
  std::shared_ptr<Conn> dial(crypto::KeyNodeId from, crypto::KeyNodeId to,
                             LaneId lane, bool redial);
  /// Holds `frame` for client `to` until its hello, up to
  /// kHeldRepliesPerClient for kHeldReplyUs; false when its hold is full.
  bool hold_reply(crypto::KeyNodeId to, LaneId lane, Bytes frame)
      COP_REQUIRES(mutex_);
  /// Drops and counts the held replies past their deadline.
  void expire_held(std::uint64_t now) COP_REQUIRES(mutex_);
  /// Forgets the clients that closed at least kHeldReplyUs ago; walks
  /// closed_clients_ at most every kHeldReplyUs / 4.
  void forget_closed(std::uint64_t now) COP_REQUIRES(mutex_);
  /// Sink for frames arriving on a conn that `local` speaks from: a
  /// multiplexed endpoint's own sink, or this node's sink for `lane`.
  std::shared_ptr<FrameSink> sink_for(crypto::KeyNodeId local, LaneId lane)
      COP_REQUIRES(mutex_);
  /// The lane's counter record, built on first use.
  LaneCounters& lane_counters(LaneId lane) COP_REQUIRES(mutex_);
  EventLoop* loop_for(LaneId lane) {
    return loops_[lane % loops_.size()].get();
  }
  void drop_endpoint(crypto::KeyNodeId node);

  // Called by the event loops, on their threads.
  std::shared_ptr<Conn> on_accept(int fd);
  EventLoop* on_hello(const std::shared_ptr<Conn>& conn);
  void on_conn_closed(const std::shared_ptr<Conn>& conn);

  const crypto::KeyNodeId self_;
  const std::uint16_t listen_port_;
  const std::map<crypto::KeyNodeId, TcpPeer> peers_;
  const TcpOptions options_;

  std::vector<std::shared_ptr<EventLoop>> loops_;

  Mutex mutex_;
  std::map<LaneId, std::shared_ptr<FrameSink>> sinks_ COP_GUARDED_BY(mutex_);
  std::map<DialKey, Route> outgoing_ COP_GUARDED_BY(mutex_);
  /// Client node -> its accepted connection (reply route; latest wins).
  std::map<crypto::KeyNodeId, std::shared_ptr<Conn>> accepted_routes_
      COP_GUARDED_BY(mutex_);
  /// Client node -> when its connection closed. Replies to it fail at once
  /// instead of waiting for a hello. A hello is 8 unauthenticated bytes, so
  /// a client is forgotten on a close about kHeldReplyUs later: the map
  /// holds the closes of the last second or so, never every client seen.
  std::map<crypto::KeyNodeId, std::uint64_t> closed_clients_
      COP_GUARDED_BY(mutex_);
  /// forget_closed walks closed_clients_ no earlier than this.
  std::uint64_t next_forget_us_ COP_GUARDED_BY(mutex_) = 0;
  /// Replies to clients that have not said hello yet, oldest first.
  std::map<crypto::KeyNodeId, std::deque<HeldReply>> held_
      COP_GUARDED_BY(mutex_);
  /// expire_held walks held_ no earlier than this.
  std::uint64_t next_expiry_us_ COP_GUARDED_BY(mutex_) = 0;
  std::map<crypto::KeyNodeId, std::shared_ptr<Endpoint>> endpoints_
      COP_GUARDED_BY(mutex_);
  /// Node-stable: connections keep pointers to their lane's record.
  std::map<LaneId, LaneCounters> lane_counters_ COP_GUARDED_BY(mutex_);
  bool stopping_ COP_GUARDED_BY(mutex_) = false;
  bool started_ COP_GUARDED_BY(mutex_) = false;

  // Connect retry schedule of a first dial: up to `connect_attempts_`
  // tries, exponential backoff from `connect_base_delay_ms_` with ±25%
  // jitter (a re-dial after the dead-peer backoff tries once). Set before
  // start(); not guarded because they are configuration, not shared state.
  int connect_attempts_ = 5;
  std::uint32_t connect_base_delay_ms_ = 10;

  metrics::Gauge& m_accepted_conns_;
  metrics::Gauge& m_closed_clients_;
};

}  // namespace copbft::transport
