#include "transport/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "common/time.hpp"

namespace copbft::transport {
namespace {

// Per-connection outbound budgets; past them frames are dropped (the
// egress side of admission control — a slow peer sheds, never blocks).
constexpr std::size_t kConnOutFrames = 1 << 16;
constexpr std::size_t kConnOutBytes = 128u << 20;
// Dials run on the sending thread, which may be a pillar driving its lane.
// After a failed dial, sends over that (from, to, lane) fail at once for
// this long, and then one sender re-dials with a single attempt.
constexpr std::uint64_t kDeadPeerBackoffUs = 200'000;
// Bound on one connect(): a silent host would otherwise hold the sender
// for the kernel's SYN retries (minutes).
constexpr int kConnectTimeoutMs = 200;

// Hello header sent once per outgoing connection: sender node id + lane.
struct Hello {
  std::uint32_t from;
  std::uint32_t lane;
};

}  // namespace

bool write_all_fd(int fd, const Byte* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // signal, not connection death
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Endpoint: a multiplexed client identity riding on the owning transport.

class TcpTransport::Endpoint final : public Transport {
 public:
  Endpoint(TcpTransport* owner, crypto::KeyNodeId node)
      : owner_(owner), node_(node) {}

  void register_sink(LaneId /*lane*/,
                     std::shared_ptr<FrameSink> sink) override {
    // One sink per endpoint: a client's replies all come back over its own
    // dialed connections, whatever lane they were sent on.
    MutexLock lock(mutex_);
    sink_ = std::move(sink);
  }

  bool send(crypto::KeyNodeId to, LaneId lane, Bytes frame) override {
    {
      MutexLock lock(mutex_);
      if (closed_) return false;
    }
    // Never call into the owner while holding mutex_: the owner resolves
    // sinks under its own lock and then takes ours (transport -> endpoint
    // order); re-entering the transport here would invert it.
    return owner_->send_from(node_, to, lane, std::move(frame));
  }

  void shutdown() override {
    std::shared_ptr<FrameSink> sink;
    {
      MutexLock lock(mutex_);
      if (closed_) return;
      closed_ = true;
      sink = std::move(sink_);
    }
    owner_->drop_endpoint(node_);
    if (sink) sink->close();
  }

  /// Shutdown driven by the owning transport (its maps are already being
  /// torn down, so no drop_endpoint round-trip).
  void close_sink() {
    std::shared_ptr<FrameSink> sink;
    {
      MutexLock lock(mutex_);
      if (closed_) return;
      closed_ = true;
      sink = std::move(sink_);
    }
    if (sink) sink->close();
  }

  std::shared_ptr<FrameSink> sink() const {
    MutexLock lock(mutex_);
    return sink_;
  }

 private:
  TcpTransport* const owner_;
  const crypto::KeyNodeId node_;
  mutable Mutex mutex_;
  std::shared_ptr<FrameSink> sink_ COP_GUARDED_BY(mutex_);
  bool closed_ COP_GUARDED_BY(mutex_) = false;
};

// ---------------------------------------------------------------------------
// TcpTransport

TcpTransport::TcpTransport(crypto::KeyNodeId self, std::uint16_t listen_port,
                           std::map<crypto::KeyNodeId, TcpPeer> peers,
                           TcpOptions options)
    : self_(self),
      listen_port_(listen_port),
      peers_(std::move(peers)),
      options_(options),
      m_accepted_conns_(metrics::MetricsRegistry::global().gauge(
          "tcp.node" + std::to_string(self) + ".accepted_conns")),
      m_closed_clients_(metrics::MetricsRegistry::global().gauge(
          "tcp.node" + std::to_string(self) + ".closed_clients")) {}

TcpTransport::~TcpTransport() { shutdown(); }

bool TcpTransport::start() {
  {
    MutexLock lock(mutex_);
    if (started_ || stopping_) return started_ && !stopping_;
    started_ = true;
  }
  int listen_fd = -1;
  if (listen_port_ != 0) {
    listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) return false;
    int yes = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(listen_port_);
    // Deep backlog: a soak fleet dials thousands of clients at once and
    // the accept path drains in batches, not per-SYN.
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(listen_fd, 4096) < 0) {
      ::close(listen_fd);
      return false;
    }
  }

  const std::uint32_t nloops = std::max(1u, options_.lane_threads);
  for (std::uint32_t i = 0; i < nloops; ++i) {
    loops_.push_back(std::make_shared<EventLoop>(
        "tcp-lane" + std::to_string(i),
        "tcp.node" + std::to_string(self_) + ".loop" + std::to_string(i) + ".",
        options_.loop, *this));
  }
  if (listen_fd >= 0) loops_[0]->set_listener(listen_fd);
  for (auto& loop : loops_) {
    if (!loop->start()) {
      for (auto& l : loops_) l->request_stop();
      for (auto& l : loops_) l->join();
      loops_.clear();
      return false;
    }
  }
  return true;
}

std::shared_ptr<FrameSink> TcpTransport::sink_for(crypto::KeyNodeId local,
                                                  LaneId lane) {
  // Dialed on behalf of a multiplexed client endpoint: inbound frames on
  // this conn are that endpoint's replies, not ours.
  if (local != self_) {
    auto it = endpoints_.find(local);
    return it == endpoints_.end() ? nullptr : it->second->sink();
  }
  auto it = sinks_.find(lane);
  return it == sinks_.end() ? nullptr : it->second;
}

LaneCounters& TcpTransport::lane_counters(LaneId lane) {
  auto it = lane_counters_.find(lane);
  if (it != lane_counters_.end()) return it->second;
  auto& registry = metrics::MetricsRegistry::global();
  const std::string prefix =
      "tcp.node" + std::to_string(self_) + ".lane" + std::to_string(lane) + ".";
  auto counter = [&](const char* name) -> metrics::Counter& {
    return registry.counter(prefix + name);
  };
  return lane_counters_
      .emplace(lane, LaneCounters{
                         .rx_frames = counter("rx_frames"),
                         .rx_bytes = counter("rx_bytes"),
                         .tx_frames = counter("tx_frames"),
                         .tx_bytes = counter("tx_bytes"),
                         .ingress_accepted = counter("ingress_accepted"),
                         .ingress_shed = counter("ingress_shed"),
                         .ingress_deadline_drops =
                             counter("ingress_deadline_drops"),
                         .egress_dropped = counter("egress_dropped"),
                         .connects = counter("connects"),
                         .dead_peer_drops = counter("dead_peer_drops"),
                         .replies_held = counter("replies_held"),
                         .held_replies_expired =
                             counter("held_replies_expired"),
                     })
      .first->second;
}

void TcpTransport::register_sink(LaneId lane, std::shared_ptr<FrameSink> sink) {
  MutexLock lock(mutex_);
  sinks_[lane] = std::move(sink);
}

std::shared_ptr<EventLoop> TcpTransport::claim_lane(LaneId lane) {
  if (loops_.empty()) return nullptr;  // start() was never called
  const std::shared_ptr<EventLoop>& loop = loops_[lane % loops_.size()];
  return loop->claim() ? loop : nullptr;
}

// connect_to / connect_with_retry run on the *sending* thread, not a loop
// thread: the bounded retry schedule may sleep for hundreds of
// milliseconds, which is exactly what the event loops must never do. The
// socket comes back non-blocking, ready for the loop machinery.
int TcpTransport::connect_to(const TcpPeer& peer) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    // EINPROGRESS (or a signal, which does not abort the handshake either):
    // wait for completion up to kConnectTimeoutMs and read the outcome
    // from SO_ERROR.
    int saved = errno;
    if (errno == EINPROGRESS || errno == EINTR) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(kConnectTimeoutMs);
      pollfd pfd{fd, POLLOUT, 0};
      int rc;
      for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        rc = ::poll(&pfd, 1, static_cast<int>(std::max<std::int64_t>(
                                 0, left.count())));
        if (rc >= 0 || errno != EINTR) break;
      }
      int err = rc == 0 ? ETIMEDOUT : errno;
      socklen_t err_len = sizeof err;
      if (rc > 0 &&
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0)
        err = errno;
      saved = err;
    }
    if (saved != 0) {
      // close() may clobber errno; callers (connect_with_retry) dispatch on
      // the *connect* failure, so carry it across.
      ::close(fd);
      errno = saved;
      return -1;
    }
  }
  int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
  return fd;
}

int TcpTransport::connect_with_retry(const TcpPeer& peer, int attempts) {
  // ECONNREFUSED during startup is routine — replicas boot in arbitrary
  // order, so the first sender usually races the peer's listen(). Retry a
  // bounded number of times with exponential backoff; ±25% jitter keeps a
  // whole cluster restarting at once from hammering the late peer in
  // lockstep. Other errnos (unreachable host, timeout) fail fast.
  Rng jitter(0x7c9ULL * self_ ^ (static_cast<std::uint64_t>(peer.port) << 32) ^
             reinterpret_cast<std::uintptr_t>(&peer));
  std::uint32_t delay_ms = connect_base_delay_ms_;
  for (int attempt = 1;; ++attempt) {
    int fd = connect_to(peer);
    if (fd >= 0) return fd;
    if (errno != ECONNREFUSED || attempt >= attempts) return -1;
    {
      MutexLock lock(mutex_);
      if (stopping_) return -1;
    }
    // delay ± 25%: [3/4·delay, 5/4·delay].
    std::uint64_t lo = delay_ms - delay_ms / 4;
    std::uint64_t sleep_ms = lo + jitter.below(delay_ms / 2 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    delay_ms = std::min(delay_ms * 2, 500u);
  }
}

std::shared_ptr<Conn> TcpTransport::on_accept(int fd) {
  {
    MutexLock lock(mutex_);
    if (stopping_) return nullptr;
  }
  // Identity is unknown until the hello: start with the hostile-client
  // frame bound; on_hello() widens it for authenticated replica peers.
  auto conn = std::make_shared<Conn>(
      fd, Conn::Kind::kAccepted, /*peer=*/0, /*lane=*/0,
      kMaxFrameClient, kConnOutFrames, kConnOutBytes);
  m_accepted_conns_.add(1);
  return conn;
}

EventLoop* TcpTransport::on_hello(const std::shared_ptr<Conn>& conn) {
  const bool client = conn->peer() >= kClientNodeFloor;
  conn->set_sheddable(client);
  if (!client) conn->decoder().set_max_frame(kMaxFrameReplica);
  std::deque<HeldReply> held;
  {
    MutexLock lock(mutex_);
    if (stopping_) return nullptr;
    auto sink = sink_for(self_, conn->lane());
    if (!sink) {
      COP_LOG_WARN("node %u: no sink for lane %u", self_, conn->lane());
      return nullptr;
    }
    conn->bind(std::move(sink), lane_counters(conn->lane()));
    if (client) {
      // Replies to this client go back over the connection it dialed;
      // latest hello wins if the client reconnects.
      accepted_routes_[conn->peer()] = conn;
      if (closed_clients_.erase(conn->peer()) != 0)
        m_closed_clients_.add(-1);
      expire_held(now_us());
      if (auto it = held_.find(conn->peer()); it != held_.end()) {
        held = std::move(it->second);
        held_.erase(it);
      }
    }
  }
  // Outside mutex_, like every other sender: the frames queue on the conn
  // and follow it to the loop it moves to.
  for (HeldReply& reply : held) submit_frame(conn, std::move(reply.frame));
  return loop_for(conn->lane());
}

void TcpTransport::on_conn_closed(const std::shared_ptr<Conn>& conn) {
  MutexLock lock(mutex_);
  if (conn->kind() == Conn::Kind::kAccepted) {
    auto it = accepted_routes_.find(conn->peer());
    if (it != accepted_routes_.end() && it->second == conn) {
      accepted_routes_.erase(it);
      const std::uint64_t now = now_us();
      forget_closed(now);
      closed_clients_[conn->peer()] = now;
      m_closed_clients_.set(static_cast<std::int64_t>(closed_clients_.size()));
    }
    // After the marker, so a reader that sees the connection gone sees it.
    m_accepted_conns_.add(-1);
  } else {
    auto it =
        outgoing_.find(DialKey{conn->local_from(), conn->peer(), conn->lane()});
    // The peer was up: its next dial is a single attempt, so a crashed
    // peer costs the sender one refused connect, not a retry schedule.
    if (it != outgoing_.end() && it->second.conn == conn)
      it->second.conn = nullptr;
  }
}

bool TcpTransport::send(crypto::KeyNodeId to, LaneId lane, Bytes frame) {
  return send_from(self_, to, lane, std::move(frame));
}

bool TcpTransport::send_from(crypto::KeyNodeId from, crypto::KeyNodeId to,
                             LaneId lane, Bytes frame) {
  std::shared_ptr<Conn> conn;
  bool redial = false;
  {
    MutexLock lock(mutex_);
    if (stopping_) return false;
    if (to >= kClientNodeFloor) {
      // Replies ride the connection the client dialed — no dial-back.
      auto it = accepted_routes_.find(to);
      if (it != accepted_routes_.end())
        conn = it->second;
      else if (!peers_.contains(to) && !closed_clients_.contains(to))
        return hold_reply(to, lane, std::move(frame));
    }
    if (!conn) {
      auto it = outgoing_.find(DialKey{from, to, lane});
      if (it != outgoing_.end()) {
        Route& route = it->second;
        conn = route.conn;
        if (!conn) {
          const std::uint64_t now = now_us();
          if (now < route.redial_at_us) {
            lane_counters(lane).dead_peer_drops.add();
            return false;
          }
          // This sender re-dials; the others keep failing fast meanwhile.
          route.redial_at_us = now + kDeadPeerBackoffUs;
          redial = true;
        }
      }
    }
  }
  if (!conn) conn = dial(from, to, lane, redial);
  if (!conn) return false;
  return submit_frame(conn, std::move(frame));
}

std::shared_ptr<Conn> TcpTransport::dial(crypto::KeyNodeId from,
                                         crypto::KeyNodeId to, LaneId lane,
                                         bool redial) {
  auto peer = peers_.find(to);  // peers_ is immutable after construction
  if (peer == peers_.end()) return nullptr;
  if (loops_.empty()) return nullptr;  // start() was never called
  // Connect outside mutex_: the retry schedule can block for hundreds of
  // milliseconds, and holding the lock would freeze every other lane's
  // sends (plus sink registration and shutdown) meanwhile. The first dial
  // rides the schedule to bridge a late listener; a re-dial tries once.
  int fd = connect_with_retry(peer->second, redial ? 1 : connect_attempts_);
  const DialKey key{from, to, lane};
  if (fd < 0) {
    MutexLock lock(mutex_);
    if (!stopping_) outgoing_[key].redial_at_us = now_us() + kDeadPeerBackoffUs;
    return nullptr;
  }
  const bool to_client = to >= kClientNodeFloor;
  // Construct the RAII owner immediately: every failure path below — a
  // hello write error, a raced shutdown, a lost publication race — drops
  // the last reference and the destructor closes the fd.
  auto conn = std::make_shared<Conn>(
      fd, Conn::Kind::kDialed, to, lane,
      to_client ? kMaxFrameClient : kMaxFrameReplica, kConnOutFrames,
      kConnOutBytes);
  conn->set_local_from(from);
  conn->set_sheddable(false);  // inbound here is replica traffic: lossless
  Hello hello{from, lane};
  // The hello is the first write on a fresh connection: its 8 bytes always
  // fit the empty send buffer of the non-blocking socket.
  if (!write_all_fd(fd, reinterpret_cast<const Byte*>(&hello), sizeof hello))
    return nullptr;
  conn->set_owner(loop_for(lane));
  {
    MutexLock lock(mutex_);
    if (stopping_) return nullptr;
    Route& route = outgoing_[key];
    // Another sender dialed this (from, to, lane) while we were outside
    // the lock; keep the published one, drop ours.
    if (route.conn) return route.conn;
    LaneCounters& counters = lane_counters(lane);
    conn->bind(sink_for(from, lane), counters);
    counters.connects.add();
    route = Route{conn, 0};
  }
  // Adopt outside mutex_ (lock order: the loop calls into the transport,
  // which takes mutex_).
  conn->owner()->adopt(conn);
  return conn;
}

bool TcpTransport::hold_reply(crypto::KeyNodeId to, LaneId lane,
                              Bytes frame) {
  const std::uint64_t now = now_us();
  expire_held(now);
  std::deque<HeldReply>& held = held_[to];
  if (held.size() >= kHeldRepliesPerClient) return false;
  held.push_back(HeldReply{now + kHeldReplyUs, lane, std::move(frame)});
  lane_counters(lane).replies_held.add();
  next_expiry_us_ = std::min(next_expiry_us_, now + kHeldReplyUs);
  return true;
}

void TcpTransport::expire_held(std::uint64_t now) {
  if (now < next_expiry_us_) return;
  next_expiry_us_ = UINT64_MAX;
  for (auto it = held_.begin(); it != held_.end();) {
    std::deque<HeldReply>& held = it->second;
    while (!held.empty() && held.front().expires_us <= now) {
      lane_counters(held.front().lane).held_replies_expired.add();
      held.pop_front();
    }
    if (held.empty()) {
      it = held_.erase(it);
    } else {
      next_expiry_us_ = std::min(next_expiry_us_, held.front().expires_us);
      ++it;
    }
  }
}

void TcpTransport::forget_closed(std::uint64_t now) {
  if (now < next_forget_us_) return;
  next_forget_us_ = now + kHeldReplyUs / 4;
  std::erase_if(closed_clients_, [now](const auto& closed) {
    return closed.second + kHeldReplyUs <= now;
  });
}

std::shared_ptr<Transport> TcpTransport::client_endpoint(
    crypto::KeyNodeId node) {
  MutexLock lock(mutex_);
  if (stopping_) return nullptr;
  auto& slot = endpoints_[node];
  if (!slot) slot = std::make_shared<Endpoint>(this, node);
  return slot;
}

void TcpTransport::drop_endpoint(crypto::KeyNodeId node) {
  std::vector<std::shared_ptr<Conn>> conns;
  {
    MutexLock lock(mutex_);
    endpoints_.erase(node);
    for (auto it = outgoing_.begin(); it != outgoing_.end();) {
      if (std::get<0>(it->first) == node) {
        if (it->second.conn) conns.push_back(std::move(it->second.conn));
        it = outgoing_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : conns) {
    if (EventLoop* owner = conn->owner()) owner->request_close(std::move(conn));
  }
}

void TcpTransport::shutdown() {
  std::vector<std::shared_ptr<Endpoint>> endpoints;
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& [node, endpoint] : endpoints_) endpoints.push_back(endpoint);
  }
  // Stop the loops first (outside mutex_ — their close hooks take it);
  // each loop gives every connection one best-effort flush, then closes
  // it, then closes the listener.
  for (auto& loop : loops_) loop->request_stop();
  for (auto& loop : loops_) loop->join();
  {
    MutexLock lock(mutex_);
    for (auto& [lane, sink] : sinks_)
      if (sink) sink->close();
    outgoing_.clear();
    accepted_routes_.clear();
    closed_clients_.clear();
    m_closed_clients_.set(0);
    held_.clear();
    endpoints_.clear();
  }
  for (auto& endpoint : endpoints) endpoint->close_sink();
}

}  // namespace copbft::transport
