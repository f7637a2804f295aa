#include <fcntl.h>
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <future>
#include <set>
#include <thread>

#include "app/null_service.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/smart_replica.hpp"
#include "core/top_replica.hpp"
#include "crypto/provider.hpp"
#include "protocol/types.hpp"
#include "support/fake_transport.hpp"
#include "transport/event_loop.hpp"
#include "transport/inproc.hpp"
#include "transport/tcp.hpp"

namespace copbft::test {
namespace {

using namespace copbft::transport;

// The transport tells clients from replicas without depending on the
// protocol layer; both must draw the line at the same node id.
static_assert(kClientNodeFloor == protocol::kClientIdBase);

// ---- in-process -------------------------------------------------------

TEST(Inproc, DeliversToRegisteredSink) {
  InprocNetwork network;
  auto inbox = std::make_shared<Inbox>();
  network.endpoint(2).register_sink(0, inbox);

  EXPECT_TRUE(network.endpoint(1).send(2, 0, to_bytes("hello")));
  auto frame = inbox->queue().pop();
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->from, 1u);
  EXPECT_EQ(frame->lane, 0u);
  EXPECT_EQ(to_string(frame->bytes), "hello");
}

TEST(Inproc, UnknownDestinationFails) {
  InprocNetwork network;
  EXPECT_FALSE(network.endpoint(1).send(99, 0, to_bytes("x")));
}

TEST(Inproc, LanesAreIndependent) {
  InprocNetwork network;
  auto lane0 = std::make_shared<Inbox>();
  auto lane1 = std::make_shared<Inbox>();
  network.endpoint(2).register_sink(0, lane0);
  network.endpoint(2).register_sink(1, lane1);

  network.endpoint(1).send(2, 1, to_bytes("one"));
  network.endpoint(1).send(2, 0, to_bytes("zero"));
  EXPECT_EQ(to_string(lane0->queue().pop()->bytes), "zero");
  EXPECT_EQ(to_string(lane1->queue().pop()->bytes), "one");
}

TEST(Inproc, FilterDropsFrames) {
  InprocNetwork network;
  auto inbox = std::make_shared<Inbox>();
  network.endpoint(2).register_sink(0, inbox);
  network.set_filter([](crypto::KeyNodeId from, crypto::KeyNodeId, LaneId) {
    return from != 1;  // drop everything node 1 sends
  });

  EXPECT_TRUE(network.endpoint(1).send(2, 0, to_bytes("dropped")));
  EXPECT_TRUE(network.endpoint(3).send(2, 0, to_bytes("kept")));
  auto frame = inbox->queue().pop();
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->from, 3u);
  EXPECT_TRUE(inbox->queue().empty());
}

TEST(Inproc, ShutdownClosesSinks) {
  InprocNetwork network;
  auto inbox = std::make_shared<Inbox>();
  network.endpoint(2).register_sink(0, inbox);
  network.endpoint(2).shutdown();
  EXPECT_EQ(inbox->queue().pop(), std::nullopt);
}

TEST(Inproc, PerSenderFifoOrder) {
  InprocNetwork network;
  auto inbox = std::make_shared<Inbox>();
  network.endpoint(2).register_sink(0, inbox);
  for (int i = 0; i < 100; ++i)
    network.endpoint(1).send(2, 0, Bytes{static_cast<Byte>(i)});
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(inbox->queue().pop()->bytes[0], static_cast<Byte>(i));
}

// ---- TCP --------------------------------------------------------------

// Every base lies below 32768, outside the kernel's default ephemeral
// port range: dialed sockets in TIME-WAIT hold ports inside that range.
std::uint16_t pick_port(std::uint16_t base) {
  // Spread across runs to dodge TIME_WAIT collisions.
  auto salt = static_cast<std::uint32_t>(
      std::chrono::steady_clock::now().time_since_epoch().count() / 1000);
  return static_cast<std::uint16_t>(base + (salt % 400));
}

class TcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_port_ = pick_port(25000);
    peers_[1] = {"127.0.0.1", base_port_};
    peers_[2] = {"127.0.0.1", static_cast<std::uint16_t>(base_port_ + 1)};
    a_ = std::make_unique<TcpTransport>(1, base_port_, peers_);
    b_ = std::make_unique<TcpTransport>(
        2, static_cast<std::uint16_t>(base_port_ + 1), peers_);
    a_inbox_ = std::make_shared<Inbox>();
    b_inbox_ = std::make_shared<Inbox>();
    a_->register_sink(0, a_inbox_);
    a_->register_sink(1, a_inbox_);
    b_->register_sink(0, b_inbox_);
    b_->register_sink(1, b_inbox_);
    ASSERT_TRUE(a_->start());
    ASSERT_TRUE(b_->start());
  }

  void TearDown() override {
    a_->shutdown();
    b_->shutdown();
  }

  std::uint16_t base_port_;
  std::map<crypto::KeyNodeId, TcpPeer> peers_;
  std::unique_ptr<TcpTransport> a_, b_;
  std::shared_ptr<Inbox> a_inbox_, b_inbox_;
};

TEST_F(TcpTest, FramesRoundTrip) {
  ASSERT_TRUE(a_->send(2, 0, to_bytes("ping")));
  auto frame = b_inbox_->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->from, 1u);
  EXPECT_EQ(to_string(frame->bytes), "ping");

  ASSERT_TRUE(b_->send(1, 0, to_bytes("pong")));
  frame = a_inbox_->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->from, 2u);
  EXPECT_EQ(to_string(frame->bytes), "pong");
}

TEST_F(TcpTest, EmptyAndLargeFrames) {
  ASSERT_TRUE(a_->send(2, 0, Bytes{}));
  Rng rng(5);
  Bytes big(256 * 1024);
  for (auto& byte : big) byte = static_cast<Byte>(rng.below(256));
  ASSERT_TRUE(a_->send(2, 0, big));

  auto empty = b_inbox_->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(empty);
  EXPECT_TRUE(empty->bytes.empty());
  auto large = b_inbox_->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(large);
  EXPECT_EQ(large->bytes, big);
}

// ---- per-peer frame bounds ---------------------------------------------

constexpr std::size_t kOversizedForClients = 2 * kMaxFrameClient;
static_assert(kOversizedForClients <= kMaxFrameReplica);

// Replica peers carry state-transfer chunks: a frame above the client
// bound still arrives.
TEST_F(TcpTest, ReplicaPeerFrameAboveClientBoundArrives) {
  Bytes big(kOversizedForClients, Byte{0x3c});
  ASSERT_TRUE(a_->send(2, 0, big));
  auto frame = b_inbox_->queue().pop_for(std::chrono::microseconds(5'000'000));
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->from, 1u);
  EXPECT_EQ(frame->bytes, big);
}

// A client's length header above the client bound is a protocol error:
// the replica drops the frame unread and closes the connection.
TEST(TcpFrameBound, ClientFrameAboveClientBoundClosesTheConnection) {
  const std::uint16_t port = pick_port(24500);
  std::map<crypto::KeyNodeId, TcpPeer> none;
  TcpTransport replica(1, port, none);
  auto replica_inbox = std::make_shared<Inbox>();
  replica.register_sink(0, replica_inbox);
  ASSERT_TRUE(replica.start());

  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  TcpTransport mux(7000, /*listen_port=*/0, peers);
  ASSERT_TRUE(mux.start());
  const crypto::KeyNodeId client = protocol::kClientIdBase + 7;
  auto endpoint = mux.client_endpoint(client);
  ASSERT_TRUE(endpoint);
  auto client_inbox = std::make_shared<Inbox>();
  endpoint->register_sink(0, client_inbox);

  // A small frame first: the connection is up and routes replies.
  ASSERT_TRUE(endpoint->send(1, 0, to_bytes("small")));
  auto small =
      replica_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(small);
  EXPECT_EQ(small->from, client);
  ASSERT_TRUE(replica.send(client, 0, to_bytes("reply")));
  ASSERT_TRUE(
      client_inbox->queue().pop_for(std::chrono::microseconds(2'000'000)));

  ASSERT_TRUE(endpoint->send(1, 0, Bytes(kOversizedForClients, Byte{0x3c})));
  // The replica has no address for the client, so once the accepted
  // connection is gone a reply has no route.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool routed = true;
  while (routed && std::chrono::steady_clock::now() < deadline) {
    routed = replica.send(client, 0, to_bytes("reply"));
    if (routed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(routed) << "the oversized frame did not close the connection";
  EXPECT_FALSE(replica_inbox->queue().try_pop())
      << "the oversized frame was delivered";

  mux.shutdown();
  replica.shutdown();
}

TEST_F(TcpTest, LanesUseSeparateConnections) {
  ASSERT_TRUE(a_->send(2, 0, to_bytes("lane0")));
  ASSERT_TRUE(a_->send(2, 1, to_bytes("lane1")));
  std::set<std::string> got;
  for (int i = 0; i < 2; ++i) {
    auto frame =
        b_inbox_->queue().pop_for(std::chrono::microseconds(2'000'000));
    ASSERT_TRUE(frame);
    got.insert(to_string(frame->bytes));
  }
  EXPECT_EQ(got, (std::set<std::string>{"lane0", "lane1"}));
}

TEST_F(TcpTest, ManyFramesInOrderPerLane) {
  for (int i = 0; i < 500; ++i) {
    Bytes frame = {static_cast<Byte>(i & 0xff), static_cast<Byte>(i >> 8)};
    ASSERT_TRUE(a_->send(2, 0, std::move(frame)));
  }
  for (int i = 0; i < 500; ++i) {
    auto frame =
        b_inbox_->queue().pop_for(std::chrono::microseconds(2'000'000));
    ASSERT_TRUE(frame) << "frame " << i;
    int value = frame->bytes[0] | (frame->bytes[1] << 8);
    EXPECT_EQ(value, i);
  }
}

TEST_F(TcpTest, SendToUnknownPeerFails) {
  EXPECT_FALSE(a_->send(42, 0, to_bytes("x")));
}

TEST_F(TcpTest, SendAfterShutdownFails) {
  a_->shutdown();
  EXPECT_FALSE(a_->send(2, 0, to_bytes("x")));
}

// ---- connect retry ----------------------------------------------------

// Replicas boot in arbitrary order: the first sender often races the
// peer's listen(). The bounded backoff in connect_with_retry must bridge a
// listener that shows up tens of milliseconds late.
TEST(TcpConnectRetry, BridgesLateListener) {
  std::uint16_t port = pick_port(26000);
  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[2] = {"127.0.0.1", port};

  TcpTransport sender(1, /*listen_port=*/0, peers);
  sender.set_connect_retry(/*attempts=*/8, /*base_delay_ms=*/10);
  ASSERT_TRUE(sender.start());

  std::unique_ptr<TcpTransport> listener;
  auto inbox = std::make_shared<Inbox>();
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    listener = std::make_unique<TcpTransport>(2, port, peers);
    listener->register_sink(0, inbox);
    ASSERT_TRUE(listener->start());
  });

  // Issued while nothing is listening yet; must ride the retry schedule.
  bool sent = sender.send(2, 0, to_bytes("early"));
  late.join();
  EXPECT_TRUE(sent);
  auto frame = inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(frame);
  EXPECT_EQ(to_string(frame->bytes), "early");

  sender.shutdown();
  if (listener) listener->shutdown();
}

// The retry is bounded: with no listener ever appearing, send() must give
// up after the configured attempts instead of spinning forever.
TEST(TcpConnectRetry, GivesUpAfterBoundedAttempts) {
  std::uint16_t port = pick_port(26500);
  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[2] = {"127.0.0.1", port};

  TcpTransport sender(1, /*listen_port=*/0, peers);
  sender.set_connect_retry(/*attempts=*/3, /*base_delay_ms=*/5);
  ASSERT_TRUE(sender.start());

  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(sender.send(2, 0, to_bytes("void")));
  auto elapsed = std::chrono::steady_clock::now() - start;
  // 3 attempts → 2 sleeps of ≤ ~7 ms + ~13 ms (base·1.25, 2·base·1.25);
  // anything near a second means the bound is broken.
  EXPECT_LT(elapsed, std::chrono::milliseconds(800));
  sender.shutdown();
}

// ---- EINTR robustness -------------------------------------------------

extern "C" void eintr_noop_handler(int) {}

/// Reads exactly `len` bytes, retrying on EINTR: the reader side of the
/// transfer below (the transport itself only reads through its loops).
bool read_exact(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<Byte*>(buf);
  while (len > 0) {
    ssize_t n = ::recv(fd, p, len, 0);
    if (n < 0 && errno == EINTR) continue;  // signal, not connection death
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

// Regression: read_exact/write_all treated every negative return as a dead
// connection. A signal without SA_RESTART delivered mid-transfer makes
// recv/send fail with EINTR, which tore down perfectly healthy connections
// (and, worse, mid-frame, desynchronizing the length-prefixed stream).
// Pelt both ends of a socketpair with signals while a multi-megabyte
// transfer dribbles through deliberately tiny socket buffers.
TEST(TcpEintr, LargeTransferSurvivesSignalStorm) {
  struct sigaction sa = {};
  struct sigaction old = {};
  sa.sa_handler = eintr_noop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls must see EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;  // force many short reads/writes
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof small);

  constexpr std::size_t kLen = 8 * 1024 * 1024;
  Bytes payload(kLen);
  Rng rng(7);
  for (auto& byte : payload) byte = static_cast<Byte>(rng.below(256));
  Bytes received(kLen);

  // Threads park on `stop` after finishing so pthread_kill always targets
  // a live thread.
  std::atomic<bool> writer_done{false}, reader_done{false}, stop{false};
  bool write_ok = false, read_ok = false;
  std::thread writer([&] {
    write_ok = write_all_fd(fds[0], payload.data(), payload.size());
    writer_done.store(true);
    while (!stop.load()) std::this_thread::yield();
  });
  std::thread reader([&] {
    read_ok = read_exact(fds[1], received.data(), received.size());
    reader_done.store(true);
    while (!stop.load()) std::this_thread::yield();
  });

  while (!writer_done.load() || !reader_done.load()) {
    pthread_kill(writer.native_handle(), SIGUSR1);
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop.store(true);
  writer.join();
  reader.join();
  close(fds[0]);
  close(fds[1]);
  sigaction(SIGUSR1, &old, nullptr);

  EXPECT_TRUE(write_ok);
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(received, payload);
}

// ---- frame decoder ----------------------------------------------------

Bytes encode_wire(const std::vector<Bytes>& frames) {
  Bytes wire;
  for (const Bytes& frame : frames) {
    std::uint32_t len = static_cast<std::uint32_t>(frame.size());
    const auto* p = reinterpret_cast<const Byte*>(&len);
    wire.insert(wire.end(), p, p + sizeof len);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  return wire;
}

// The decoder must reassemble frames whose bytes arrive one at a time —
// every header and payload boundary torn — exactly as if they arrived in
// one read.
TEST(FrameDecoder, ByteAtATimeReassemblesFrames) {
  Rng rng(11);
  std::vector<Bytes> frames;
  frames.push_back({});  // empty frame: header only
  frames.push_back({Byte{0x42}});
  Bytes big(300);
  for (auto& byte : big) byte = static_cast<Byte>(rng.below(256));
  frames.push_back(big);
  frames.push_back({});
  Bytes wire = encode_wire(frames);

  FrameDecoder decoder(/*max_frame=*/1024);
  std::vector<Bytes> out;
  for (Byte byte : wire) ASSERT_TRUE(decoder.feed(&byte, 1, out));
  EXPECT_EQ(out, frames);
}

// Satellite hardening: the 4-byte length header is validated against the
// bound BEFORE the payload buffer is allocated — a hostile client cannot
// make the replica reserve gigabytes with 4 bytes of traffic.
TEST(FrameDecoder, RejectsOversizedHeaderWithoutAllocating) {
  FrameDecoder decoder(/*max_frame=*/1024);
  std::uint32_t hostile = 0x7fffffffu;
  std::vector<Bytes> out;
  EXPECT_FALSE(decoder.feed(reinterpret_cast<const Byte*>(&hostile),
                            sizeof hostile, out));
  EXPECT_TRUE(out.empty());
}

TEST(FrameDecoder, AcceptsFrameExactlyAtTheBound) {
  FrameDecoder decoder(/*max_frame=*/64);
  std::vector<Bytes> frames{Bytes(64, Byte{0xab})};
  Bytes wire = encode_wire(frames);
  std::vector<Bytes> out;
  ASSERT_TRUE(decoder.feed(wire.data(), wire.size(), out));
  EXPECT_EQ(out, frames);

  FrameDecoder strict(/*max_frame=*/63);
  out.clear();
  EXPECT_FALSE(strict.feed(wire.data(), wire.size(), out));
}

// ---- writev flush cursor ----------------------------------------------

// Drain the outbound queue one byte per "write": every resume point —
// mid-header, mid-payload, at each frame boundary — must produce the same
// byte stream a single write would, verified by decoding it back.
TEST(FlushCursor, ByteAtATimeDrainMatchesTheWire) {
  Rng rng(13);
  std::vector<Bytes> payloads;
  payloads.push_back({});
  payloads.push_back({Byte{0x01}});
  Bytes mid(5);
  for (auto& byte : mid) byte = static_cast<Byte>(rng.below(256));
  payloads.push_back(mid);
  Bytes big(300);
  for (auto& byte : big) byte = static_cast<Byte>(rng.below(256));
  payloads.push_back(big);

  std::deque<OutFrame> queue;
  for (const Bytes& payload : payloads)
    queue.push_back(
        OutFrame{static_cast<std::uint32_t>(payload.size()), payload});

  Bytes wire;
  std::size_t front_offset = 0;
  struct iovec iov[4];
  while (!queue.empty()) {
    std::size_t count = build_flush_iovecs(queue, front_offset, iov, 4);
    ASSERT_GT(count, 0u);
    wire.push_back(*static_cast<const Byte*>(iov[0].iov_base));
    std::size_t frames_done = 0, bytes_released = 0;
    front_offset =
        consume_flushed(queue, front_offset, 1, frames_done, bytes_released);
  }
  EXPECT_EQ(wire, encode_wire(payloads));

  FrameDecoder decoder(1024);
  std::vector<Bytes> out;
  ASSERT_TRUE(decoder.feed(wire.data(), wire.size(), out));
  EXPECT_EQ(out, payloads);
}

// Same drain at every chunk size: partial writev returns of any length
// leave a cursor the next flush resumes from without duplicating or
// dropping a byte.
TEST(FlushCursor, ArbitraryChunkDrainsMatchTheWire) {
  std::vector<Bytes> payloads{Bytes{}, Bytes(3, Byte{0x7f}),
                              Bytes(100, Byte{0x55})};
  const Bytes expected = encode_wire(payloads);
  for (std::size_t chunk = 1; chunk <= expected.size(); ++chunk) {
    std::deque<OutFrame> queue;
    for (const Bytes& payload : payloads)
      queue.push_back(
          OutFrame{static_cast<std::uint32_t>(payload.size()), payload});
    Bytes wire;
    std::size_t front_offset = 0;
    struct iovec iov[8];
    while (!queue.empty()) {
      std::size_t count = build_flush_iovecs(queue, front_offset, iov, 8);
      ASSERT_GT(count, 0u);
      std::size_t take = chunk;
      for (std::size_t i = 0; i < count && take > 0; ++i) {
        std::size_t n = std::min(take, iov[i].iov_len);
        const auto* base = static_cast<const Byte*>(iov[i].iov_base);
        wire.insert(wire.end(), base, base + n);
        take -= n;
      }
      std::size_t frames_done = 0, bytes_released = 0;
      front_offset = consume_flushed(queue, front_offset, chunk - take,
                                     frames_done, bytes_released);
    }
    ASSERT_EQ(wire, expected) << "chunk size " << chunk;
  }
}

// ---- fd hygiene -------------------------------------------------------

int count_open_fds() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++count;
  return count;
}

// The Conn destructor is the RAII backstop: any error path that abandons a
// connection — a failed hello write, a lost publication race — still
// closes the socket.
TEST(TcpFdHygiene, ConnDestructorClosesTheSocket) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  { Conn conn(fds[0], Conn::Kind::kDialed, 2, 0, 1024, 16, 1 << 20); }
  EXPECT_EQ(fcntl(fds[0], F_GETFD), -1);
  EXPECT_EQ(errno, EBADF);
  close(fds[1]);
}

// Regression for the fd leak in the thread-per-connection transport:
// dialed sockets were shutdown() but never close()d. Full lifecycles —
// traffic both ways, failed dials, shutdown — must return the process to
// its baseline descriptor count.
TEST(TcpFdHygiene, LifecyclesLeakNoDescriptors) {
  const std::uint16_t port = pick_port(27000);
  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  peers[2] = {"127.0.0.1", static_cast<std::uint16_t>(port + 1)};

  const int baseline = count_open_fds();
  for (int round = 0; round < 3; ++round) {
    TcpTransport a(1, port, peers);
    TcpTransport b(2, static_cast<std::uint16_t>(port + 1), peers);
    auto a_inbox = std::make_shared<Inbox>();
    auto b_inbox = std::make_shared<Inbox>();
    a.register_sink(0, a_inbox);
    b.register_sink(0, b_inbox);
    ASSERT_TRUE(a.start());
    ASSERT_TRUE(b.start());
    ASSERT_TRUE(a.send(2, 0, to_bytes("there")));
    ASSERT_TRUE(b.send(1, 0, to_bytes("back")));
    ASSERT_TRUE(b_inbox->queue().pop_for(std::chrono::microseconds(2'000'000)));
    ASSERT_TRUE(a_inbox->queue().pop_for(std::chrono::microseconds(2'000'000)));
    // A dial that never connects must not leave a socket behind either.
    std::map<crypto::KeyNodeId, TcpPeer> dead;
    dead[9] = {"127.0.0.1", static_cast<std::uint16_t>(port + 7)};
    TcpTransport c(3, 0, dead);
    c.set_connect_retry(2, 1);
    ASSERT_TRUE(c.start());
    EXPECT_FALSE(c.send(9, 0, to_bytes("void")));
    a.shutdown();
    b.shutdown();
    c.shutdown();
  }
  EXPECT_EQ(count_open_fds(), baseline);
}

// ---- client routing ---------------------------------------------------

// Replies to a client must ride back over the connection the client
// dialed: the replica has no peer entry for the client (clients have no
// listen port), so the accepted-connection route is the only way home.
TEST(TcpClientRoute, RepliesRideTheAcceptedConnection) {
  const std::uint16_t port = pick_port(27500);
  std::map<crypto::KeyNodeId, TcpPeer> replica_peers;  // knows nobody
  TcpTransport replica(1, port, replica_peers);
  auto replica_inbox = std::make_shared<Inbox>();
  replica.register_sink(0, replica_inbox);
  ASSERT_TRUE(replica.start());

  std::map<crypto::KeyNodeId, TcpPeer> client_peers;
  client_peers[1] = {"127.0.0.1", port};
  TcpTransport client(5001, /*listen_port=*/0, client_peers);
  auto client_inbox = std::make_shared<Inbox>();
  client.register_sink(0, client_inbox);
  ASSERT_TRUE(client.start());

  ASSERT_TRUE(client.send(1, 0, to_bytes("request")));
  auto request =
      replica_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(request);
  EXPECT_EQ(request->from, 5001u);

  ASSERT_TRUE(replica.send(5001, 0, to_bytes("reply")));
  auto reply =
      client_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->from, 1u);
  EXPECT_EQ(to_string(reply->bytes), "reply");

  client.shutdown();
  replica.shutdown();
}

// Multiplexed client endpoints: many client identities share one
// transport's sockets and loops, each dialing with its own node id and
// receiving its own replies on its own sink.
TEST(TcpClientRoute, EndpointsKeepTheirIdentities) {
  const std::uint16_t port = pick_port(28000);
  std::map<crypto::KeyNodeId, TcpPeer> none;
  TcpTransport replica(1, port, none);
  auto replica_inbox = std::make_shared<Inbox>();
  replica.register_sink(0, replica_inbox);
  ASSERT_TRUE(replica.start());

  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  TcpTransport mux(6000, /*listen_port=*/0, peers);
  ASSERT_TRUE(mux.start());
  auto first = mux.client_endpoint(6001);
  auto second = mux.client_endpoint(6002);
  ASSERT_TRUE(first);
  ASSERT_TRUE(second);
  auto first_inbox = std::make_shared<Inbox>();
  auto second_inbox = std::make_shared<Inbox>();
  first->register_sink(0, first_inbox);
  second->register_sink(0, second_inbox);

  ASSERT_TRUE(first->send(1, 0, to_bytes("from-6001")));
  ASSERT_TRUE(second->send(1, 0, to_bytes("from-6002")));
  std::set<crypto::KeyNodeId> senders;
  for (int i = 0; i < 2; ++i) {
    auto frame =
        replica_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
    ASSERT_TRUE(frame);
    senders.insert(frame->from);
  }
  EXPECT_EQ(senders, (std::set<crypto::KeyNodeId>{6001, 6002}));

  ASSERT_TRUE(replica.send(6001, 0, to_bytes("to-6001")));
  ASSERT_TRUE(replica.send(6002, 0, to_bytes("to-6002")));
  auto to_first =
      first_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(to_first);
  EXPECT_EQ(to_string(to_first->bytes), "to-6001");
  auto to_second =
      second_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(to_second);
  EXPECT_EQ(to_string(to_second->bytes), "to-6002");

  mux.shutdown();
  replica.shutdown();
}

// ---- admission control ------------------------------------------------

std::uint64_t counter_value(const std::string& name) {
  return metrics::MetricsRegistry::global().counter(name).value();
}

// A client blasting a replica whose sink is saturated must be shed at
// ingress (bounded retry queue, then drop) — never block the loop thread,
// never grow memory without bound.
TEST(TcpAdmission, OverloadShedsClientFramesAtIngress) {
  const std::uint16_t port = pick_port(28500);
  TcpOptions opts;
  opts.loop.ingress_retry_budget = 4;
  opts.loop.ingress_retry_deadline_us = 2'000;
  std::map<crypto::KeyNodeId, TcpPeer> none;
  TcpTransport replica(1, port, none, opts);
  auto tiny = std::make_shared<Inbox>(/*capacity=*/1);
  replica.register_sink(0, tiny);
  ASSERT_TRUE(replica.start());

  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  TcpTransport client(5002, /*listen_port=*/0, peers);
  ASSERT_TRUE(client.start());

  const std::uint64_t shed_before =
      counter_value("tcp.node1.lane0.ingress_shed");
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(client.send(1, 0, Bytes(64, Byte{0x5a})));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter_value("tcp.node1.lane0.ingress_shed") == shed_before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(counter_value("tcp.node1.lane0.ingress_shed"), shed_before);
  EXPECT_GT(counter_value("tcp.node1.lane0.ingress_accepted"), 0u);

  client.shutdown();
  replica.shutdown();
}

// Replica-to-replica traffic is lossless: when the sink is busy the loop
// parks decoded frames and disarms EPOLLIN (TCP flow control pushes back);
// every frame arrives, in order, with zero sheds.
TEST(TcpAdmission, ReplicaPeersAreLosslessUnderBackpressure) {
  const std::uint16_t port = pick_port(29000);
  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  peers[2] = {"127.0.0.1", static_cast<std::uint16_t>(port + 1)};
  TcpTransport a(1, port, peers);
  TcpTransport b(2, static_cast<std::uint16_t>(port + 1), peers);
  auto slow = std::make_shared<Inbox>(/*capacity=*/2);
  b.register_sink(0, slow);
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());

  const std::uint64_t shed_before =
      counter_value("tcp.node2.lane0.ingress_shed");
  const std::uint64_t drop_before =
      counter_value("tcp.node2.lane0.ingress_deadline_drops");
  for (int i = 0; i < 50; ++i) {
    Bytes frame = {static_cast<Byte>(i), Byte{0}};
    ASSERT_TRUE(a.send(2, 0, std::move(frame)));
  }
  for (int i = 0; i < 50; ++i) {
    // Drain slowly so the parked/pause/resume machinery cycles.
    auto frame = slow->queue().pop_for(std::chrono::microseconds(2'000'000));
    ASSERT_TRUE(frame) << "frame " << i;
    EXPECT_EQ(frame->bytes[0], static_cast<Byte>(i));
    if (i % 10 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(counter_value("tcp.node2.lane0.ingress_shed"), shed_before);
  EXPECT_EQ(counter_value("tcp.node2.lane0.ingress_deadline_drops"),
            drop_before);

  a.shutdown();
  b.shutdown();
}

// ---- many-client soak -------------------------------------------------

/// Echoes every frame back to its sender over the accepted connection —
/// the reply path of a replica, minus the consensus in the middle.
class EchoSink final : public FrameSink {
 public:
  explicit EchoSink(TcpTransport& transport) : transport_(transport) {}
  bool deliver(ReceivedFrame frame) override {
    return try_deliver(frame) == Admit::kAdmitted;
  }
  Admit try_deliver(ReceivedFrame& frame) override {
    transport_.send(frame.from, frame.lane, std::move(frame.bytes));
    return Admit::kAdmitted;
  }
  void close() override {}

 private:
  TcpTransport& transport_;
};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kSoakClients = 256;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr int kSoakClients = 256;
#else
constexpr int kSoakClients = 2000;
#endif
#else
constexpr int kSoakClients = 2000;
#endif

// Thousands of concurrent client connections multiplex onto the replica's
// two lane threads; under nominal load every request is admitted (zero
// sheds) and every client gets its reply.
TEST(TcpSoak, ThousandsOfClientsRoundTrip) {
  const std::uint16_t port = pick_port(29500);
  std::map<crypto::KeyNodeId, TcpPeer> none;
  TcpTransport replica(1, port, none);
  auto echo = std::make_shared<EchoSink>(replica);
  replica.register_sink(0, echo);
  ASSERT_TRUE(replica.start());

  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  TcpTransport mux(9000, /*listen_port=*/0, peers);
  ASSERT_TRUE(mux.start());
  auto shared_inbox = std::make_shared<Inbox>(kSoakClients + 64);

  const std::uint64_t shed_before =
      counter_value("tcp.node1.lane0.ingress_shed");
  const crypto::KeyNodeId base = 10'000;
  std::vector<std::shared_ptr<Transport>> endpoints;
  endpoints.reserve(kSoakClients);
  for (int i = 0; i < kSoakClients; ++i) {
    auto endpoint = mux.client_endpoint(base + static_cast<std::uint32_t>(i));
    ASSERT_TRUE(endpoint);
    endpoint->register_sink(0, shared_inbox);
    std::uint32_t id = base + static_cast<std::uint32_t>(i);
    Bytes payload(sizeof id);
    std::memcpy(payload.data(), &id, sizeof id);
    ASSERT_TRUE(endpoint->send(1, 0, std::move(payload))) << "client " << i;
    endpoints.push_back(std::move(endpoint));
  }

  std::set<std::uint32_t> replied;
  for (int i = 0; i < kSoakClients; ++i) {
    auto frame =
        shared_inbox->queue().pop_for(std::chrono::microseconds(10'000'000));
    ASSERT_TRUE(frame) << "reply " << i << " of " << kSoakClients;
    ASSERT_EQ(frame->bytes.size(), sizeof(std::uint32_t));
    std::uint32_t id = 0;
    std::memcpy(&id, frame->bytes.data(), sizeof id);
    replied.insert(id);
  }
  EXPECT_EQ(replied.size(), static_cast<std::size_t>(kSoakClients));
  // Nominal load: admission never shed a single request.
  EXPECT_EQ(counter_value("tcp.node1.lane0.ingress_shed"), shed_before);
  // The accepted-connection watermark proves the concurrency was real.
  EXPECT_GE(metrics::MetricsRegistry::global()
                .gauge("tcp.node1.accepted_conns")
                .max(),
            static_cast<std::int64_t>(kSoakClients));

  mux.shutdown();
  replica.shutdown();
}

// ---- replica front stages ---------------------------------------------

/// What one more try_deliver answers once the lane-0 sink of a replica that
/// was never started (so nothing drains it) is full. A sink that blocks
/// instead would park an event-loop lane; after 2 s the sink is closed to
/// end such a wait, which then reads as kClosed.
template <class ReplicaT>
Admit admission_when_full(core::ReplicaRuntimeConfig config) {
  config.queue_capacity = 2;
  auto crypto = crypto::make_real_crypto(1);
  FakeTransport transport;
  ReplicaT replica(0, config, std::make_unique<app::NullService>(), *crypto,
                   transport);
  std::shared_ptr<FrameSink> sink = transport.sink(0);
  if (!sink) {
    ADD_FAILURE() << "no lane-0 sink registered";
    return Admit::kClosed;
  }
  for (std::size_t i = 0; i < config.queue_capacity; ++i) {
    ReceivedFrame frame{1, 0, to_bytes("x")};
    EXPECT_EQ(sink->try_deliver(frame), Admit::kAdmitted);
  }
  auto answer = std::async(std::launch::async, [&sink] {
    ReceivedFrame frame{1, 0, to_bytes("x")};
    return sink->try_deliver(frame);
  });
  if (answer.wait_for(std::chrono::seconds(2)) != std::future_status::ready)
    sink->close();
  const Admit admit = answer.get();
  replica.stop();
  return admit;
}

TEST(FrontStageAdmission, FullTopIngressAnswersBusy) {
  EXPECT_EQ(admission_when_full<core::TopReplica>({}), Admit::kBusy);
}

TEST(FrontStageAdmission, FullSmartVerifyPoolAnswersBusy) {
  core::ReplicaRuntimeConfig config;
  config.protocol.max_active_proposals = 1;
  EXPECT_EQ(admission_when_full<core::SmartReplica>(config), Admit::kBusy);
}

// ---- flush wake-ups ---------------------------------------------------

/// Collects frames into an Inbox. While held, the first frame offered parks
/// the delivering lane thread until release().
class GateSink final : public FrameSink {
 public:
  bool deliver(ReceivedFrame frame) override {
    return try_deliver(frame) == Admit::kAdmitted;
  }
  Admit try_deliver(ReceivedFrame& frame) override {
    {
      std::unique_lock lock(mutex_);
      if (held_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return !held_; });
      }
    }
    return inbox_.try_deliver(frame);
  }
  void close() override {
    release();
    inbox_.close();
  }

  void hold() {
    std::lock_guard lock(mutex_);
    held_ = true;
    entered_ = false;
  }
  bool wait_entered() {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return entered_; });
  }
  void release() {
    std::lock_guard lock(mutex_);
    held_ = false;
    cv_.notify_all();
  }
  BoundedQueue<ReceivedFrame>& queue() { return inbox_.queue(); }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool held_ = false;
  bool entered_ = false;
  Inbox inbox_;
};

// A flush scheduled while another is pending writes no eventfd: the first
// one's write covers it. Every client connection rides the mux's single
// lane thread, so their flushes share one dirty list. Phase 1 parks that
// thread inside a sink while the other clients send, so every flush after
// the first lands on a non-empty list; all must reach the peer. Phase 2
// sends to an idle loop, single frames and bursts: a wake lost there would
// leave each round to the loop's 100 ms poll.
TEST(TcpWake, FlushesScheduledWhileOneIsPendingAllArrive) {
  constexpr int kClients = 8;
  constexpr int kRounds = 24;
  const std::uint16_t port = pick_port(30000);
  TcpTransport replica(1, port, {});
  replica.register_sink(0, std::make_shared<EchoSink>(replica));
  ASSERT_TRUE(replica.start());
  TcpOptions one_lane;
  one_lane.lane_threads = 1;
  TcpTransport mux(9000, /*listen_port=*/0, {{1, {"127.0.0.1", port}}},
                   one_lane);
  ASSERT_TRUE(mux.start());
  auto gate = std::make_shared<GateSink>();
  std::vector<std::shared_ptr<Transport>> clients;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    clients.push_back(mux.client_endpoint(20'000 + i));
    clients.back()->register_sink(0, gate);
  }
  auto send_from = [&](int first, int count) {
    bool ok = true;
    for (int i = first; i < first + count; ++i)
      ok = clients[i]->send(1, 0, to_bytes("x")) && ok;
    return ok;
  };
  auto replies = [&](int count) {
    for (int i = 0; i < count; ++i)
      if (!gate->queue().pop_for(std::chrono::seconds(10))) return i;
    return count;
  };
  ASSERT_TRUE(send_from(0, kClients));  // dials every connection
  ASSERT_EQ(replies(kClients), kClients);

  gate->hold();
  ASSERT_TRUE(send_from(0, 1));
  const bool entered = gate->wait_entered();
  const bool sent = send_from(1, kClients - 1);
  gate->release();
  ASSERT_TRUE(entered) << "the lane thread never reached the sink";
  ASSERT_TRUE(sent);
  ASSERT_EQ(replies(kClients), kClients);

  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    const int count = round % 3 == 0 ? 1 : kClients;
    ASSERT_TRUE(send_from(0, count));
    ASSERT_EQ(replies(count), count) << "round " << round;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            kRounds * std::chrono::milliseconds(25))
      << "rounds waited for the loop's poll instead of a wake";

  mux.shutdown();
  replica.shutdown();
}


// ---- dead peers -------------------------------------------------------

// A send to a peer whose dial just failed must not dial again: until the
// backoff expires it fails at once, so a crashed replica cannot stall the
// pillar that sends to it (a first dial rides the whole retry schedule).
// Once the backoff has passed, one re-dial reaches a listener that came
// up meanwhile.
TEST(TcpDeadPeer, SendAfterFailedDialReturnsAtOnce) {
  const std::uint16_t port = pick_port(31500);
  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[2] = {"127.0.0.1", port};
  TcpTransport sender(1, /*listen_port=*/0, peers);
  sender.set_connect_retry(/*attempts=*/3, /*base_delay_ms=*/20);
  ASSERT_TRUE(sender.start());
  ASSERT_FALSE(sender.send(2, 0, to_bytes("void")));  // the dial fails

  auto& drops = metrics::MetricsRegistry::global().counter(
      "tcp.node1.lane0.dead_peer_drops");
  const std::uint64_t drops_before = drops.value();
  constexpr int kSends = 5;
  auto fastest = std::chrono::steady_clock::duration::max();
  auto slowest = std::chrono::steady_clock::duration::zero();
  for (int i = 0; i < kSends; ++i) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(sender.send(2, 0, to_bytes("again")));
    const auto took = std::chrono::steady_clock::now() - start;
    fastest = std::min(fastest, took);
    slowest = std::max(slowest, took);
  }
  EXPECT_LT(fastest, std::chrono::milliseconds(1));
  // Even a preempted send stays far below one dial's retry schedule.
  EXPECT_LT(slowest, std::chrono::milliseconds(20));
#if COP_METRICS_ENABLED
  EXPECT_EQ(drops.value(), drops_before + kSends);
#else
  (void)drops_before;
#endif

  TcpTransport listener(2, port, peers);
  auto inbox = std::make_shared<Inbox>();
  listener.register_sink(0, inbox);
  ASSERT_TRUE(listener.start());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!sender.send(2, 0, to_bytes("back"))) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no re-dial after the backoff";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto frame = inbox->queue().pop_for(std::chrono::seconds(5));
  ASSERT_TRUE(frame);
  EXPECT_EQ(to_string(frame->bytes), "back");
  sender.shutdown();
  listener.shutdown();
}

// ---- claimed loops ----------------------------------------------------

std::uint64_t loop_counter(crypto::KeyNodeId node, int loop,
                           const std::string& name) {
  return metrics::MetricsRegistry::global()
      .counter("tcp.node" + std::to_string(node) + ".loop" +
               std::to_string(loop) + "." + name)
      .value();
}

std::string pop_text(Inbox& inbox) {
  auto frame = inbox.queue().pop_for(std::chrono::seconds(5));
  return frame ? to_string(frame->bytes) : std::string("<none>");
}

#if COP_METRICS_ENABLED
// The per-loop syscall counters move on a round trip: a sends and b
// answers on lane 0, whose connections both live on each node's loop 0.
TEST_F(TcpTest, RoundTripMovesEverySyscallCounter) {
  const char* kNames[] = {"wakeups", "recv_calls", "writev_calls",
                          "wake_writes"};
  std::vector<std::uint64_t> before;
  for (const char* name : kNames) before.push_back(loop_counter(1, 0, name));
  ASSERT_TRUE(a_->send(2, 0, to_bytes("ping")));
  ASSERT_EQ(pop_text(*b_inbox_), "ping");
  ASSERT_TRUE(b_->send(1, 0, to_bytes("pong")));
  ASSERT_EQ(pop_text(*a_inbox_), "pong");
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_GT(loop_counter(1, 0, kNames[i]), before[i]) << kNames[i];
}

// The per-lane counters move on a ping/pong over lane 0: each frame moves
// its sender's tx_frames and its receiver's rx_frames by exactly one, and
// their byte counters by at least its wire size; only the first send of a
// (from, to, lane) dials, so only it moves connects.
TEST_F(TcpTest, RoundTripMovesEveryLaneCounter) {
  const std::string kNames[] = {"tx_frames", "tx_bytes", "rx_frames",
                                "rx_bytes", "connects"};
  auto lane0 = [](crypto::KeyNodeId node, const std::string& name) {
    return counter_value("tcp.node" + std::to_string(node) + ".lane0." + name);
  };
  std::map<std::pair<crypto::KeyNodeId, std::string>, std::uint64_t> before;
  for (crypto::KeyNodeId node : {1u, 2u})
    for (const std::string& name : kNames)
      before[{node, name}] = lane0(node, name);
  auto moved = [&](crypto::KeyNodeId node, const std::string& name) {
    return lane0(node, name) - before[{node, name}];
  };
  constexpr std::uint64_t kWire = sizeof(std::uint32_t) + 4;  // "ping"

  ASSERT_TRUE(a_->send(2, 0, to_bytes("ping")));
  EXPECT_EQ(moved(1, "connects"), 1u);
  ASSERT_EQ(pop_text(*b_inbox_), "ping");
  ASSERT_TRUE(b_->send(1, 0, to_bytes("pong")));
  EXPECT_EQ(moved(2, "connects"), 1u);
  ASSERT_EQ(pop_text(*a_inbox_), "pong");
  // A receiver counts a frame before its sink sees it, and a's loop
  // counted the ping before it read the pong; b counts the pong once
  // sendmsg returns, which may be after a read it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (moved(2, "tx_frames") == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (crypto::KeyNodeId node : {1u, 2u}) {
    EXPECT_EQ(moved(node, "tx_frames"), 1u) << "node " << node;
    EXPECT_EQ(moved(node, "rx_frames"), 1u) << "node " << node;
    EXPECT_GE(moved(node, "tx_bytes"), kWire) << "node " << node;
    EXPECT_GE(moved(node, "rx_bytes"), kWire) << "node " << node;
  }

  ASSERT_TRUE(a_->send(2, 0, to_bytes("again")));
  EXPECT_EQ(moved(1, "connects"), 1u) << "the second send dialed again";
  EXPECT_EQ(pop_text(*b_inbox_), "again");
}

// A claimant drives the loop from its own thread. A frame it sends inside
// its round is flushed by that round before the next wait, so no eventfd
// is written; once released, the loop is back on a lane thread.
TEST_F(TcpTest, FlushFromTheDrivingThreadWritesNoEventfd) {
  ASSERT_TRUE(a_->send(2, 0, to_bytes("dial")));  // the conn comes up
  ASSERT_EQ(pop_text(*b_inbox_), "dial");
  std::shared_ptr<EventLoop> loop = a_->claim_lane(0);
  ASSERT_TRUE(loop);
  EXPECT_FALSE(a_->claim_lane(2)) << "lane 2 shares loop 0: one claimant";

  const std::uint64_t wakes = loop_counter(1, 0, "wake_writes");
  const std::uint64_t writes = loop_counter(1, 0, "writev_calls");
  bool sent = false;
  ASSERT_TRUE(loop->round(0, [&] { sent = a_->send(2, 0, to_bytes("in")); }));
  EXPECT_TRUE(sent);
  EXPECT_EQ(loop_counter(1, 0, "wake_writes"), wakes);
  EXPECT_GT(loop_counter(1, 0, "writev_calls"), writes)
      << "the round did not flush what it sent";
  EXPECT_EQ(pop_text(*b_inbox_), "in");

  // Frames that arrive while the claimant drives are read by its rounds.
  ASSERT_TRUE(b_->send(1, 0, to_bytes("to-claimant")));
  std::optional<ReceivedFrame> got;
  for (int i = 0; i < 500 && !got; ++i) {
    ASSERT_TRUE(loop->round(10, [] {}));
    got = a_inbox_->queue().try_pop();
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(to_string(got->bytes), "to-claimant");

  loop->release();
  ASSERT_TRUE(a_->send(2, 0, to_bytes("after")));
  EXPECT_EQ(pop_text(*b_inbox_), "after");
  ASSERT_TRUE(b_->send(1, 0, to_bytes("back")));
  EXPECT_EQ(pop_text(*a_inbox_), "back");
}
#endif  // COP_METRICS_ENABLED

// Both teardown orders of a claimed loop terminate and close every
// descriptor: released then shut down, or shut down while still driven
// (the claimant's next round closes the connections and reports it).
TEST(TcpClaimedLoop, TeardownInEitherOrderLeaksNoDescriptors) {
  const std::uint16_t port = pick_port(31000);
  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  peers[2] = {"127.0.0.1", static_cast<std::uint16_t>(port + 1)};
  const int baseline = count_open_fds();
  for (bool release_first : {true, false}) {
    TcpTransport a(1, port, peers);
    TcpTransport b(2, static_cast<std::uint16_t>(port + 1), peers);
    auto a_inbox = std::make_shared<Inbox>();
    auto b_inbox = std::make_shared<Inbox>();
    a.register_sink(0, a_inbox);
    b.register_sink(0, b_inbox);
    ASSERT_TRUE(a.start());
    ASSERT_TRUE(b.start());
    std::shared_ptr<EventLoop> loop = a.claim_lane(0);
    ASSERT_TRUE(loop);
    std::atomic<bool> stop{false};
    std::atomic<bool> closed{false};
    std::thread claimant([&] {
      while (!stop.load()) {
        if (!loop->round(5, [&] { a.send(2, 0, to_bytes("tick")); })) {
          closed = true;
          return;
        }
      }
    });
    ASSERT_TRUE(b_inbox->queue().pop_for(std::chrono::seconds(5)));
    ASSERT_TRUE(b.send(1, 0, to_bytes("back")));
    ASSERT_TRUE(a_inbox->queue().pop_for(std::chrono::seconds(5)));
    const auto start = std::chrono::steady_clock::now();
    if (release_first) {
      stop = true;
      claimant.join();
      loop->release();
      a.shutdown();
    } else {
      a.shutdown();  // returns once the claimant's round has closed the loop
      stop = true;
      claimant.join();
      EXPECT_TRUE(closed.load()) << "the claimant's round never saw the stop";
      loop->release();  // no-op: the loop is closed
    }
    b.shutdown();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
  }
  EXPECT_EQ(count_open_fds(), baseline);
}

// ---- replies held until the client's hello ------------------------------

metrics::Counter& lane0_counter(crypto::KeyNodeId node, const char* name) {
  return metrics::MetricsRegistry::global().counter(
      "tcp.node" + std::to_string(node) + ".lane0." + name);
}

// A replica can execute a client's first request, learned from the
// leader, before the client has dialed it: the reply waits for the hello
// and then rides the client's connection.
TEST(TcpHeldReplies, ReplyBeforeHelloReachesTheClientOnceItConnects) {
  const std::uint16_t port = pick_port(30500);
  std::map<crypto::KeyNodeId, TcpPeer> none;
  TcpTransport replica(1, port, none);
  auto replica_inbox = std::make_shared<Inbox>();
  replica.register_sink(0, replica_inbox);
  ASSERT_TRUE(replica.start());
  metrics::Counter& held = lane0_counter(1, "replies_held");
  const std::uint64_t held_before = held.value();

  const crypto::KeyNodeId client = protocol::kClientIdBase + 31;
  ASSERT_TRUE(replica.send(client, 0, to_bytes("early")));
  EXPECT_EQ(held.value() - held_before, 1u);

  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  TcpTransport mux(7100, /*listen_port=*/0, peers);
  ASSERT_TRUE(mux.start());
  auto endpoint = mux.client_endpoint(client);
  ASSERT_TRUE(endpoint);
  auto client_inbox = std::make_shared<Inbox>();
  endpoint->register_sink(0, client_inbox);
  ASSERT_TRUE(endpoint->send(1, 0, to_bytes("request")));

  auto reply =
      client_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(reply) << "the held reply never arrived";
  EXPECT_EQ(reply->from, 1u);
  EXPECT_EQ(to_string(reply->bytes), "early");
  ASSERT_TRUE(replica.send(client, 0, to_bytes("later")));
  reply = client_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(reply);
  EXPECT_EQ(to_string(reply->bytes), "later");
  EXPECT_EQ(held.value() - held_before, 1u) << "the route was open";

  mux.shutdown();
  replica.shutdown();
}

TEST(TcpHeldReplies, ReplyHeldPastItsDeadlineIsDroppedAndCounted) {
  const std::uint16_t port = pick_port(32000);
  std::map<crypto::KeyNodeId, TcpPeer> none;
  TcpTransport replica(1, port, none);
  auto replica_inbox = std::make_shared<Inbox>();
  replica.register_sink(0, replica_inbox);
  ASSERT_TRUE(replica.start());
  metrics::Counter& expired = lane0_counter(1, "held_replies_expired");
  const std::uint64_t expired_before = expired.value();

  const crypto::KeyNodeId client = protocol::kClientIdBase + 32;
  ASSERT_TRUE(replica.send(client, 0, to_bytes("stale")));
  std::this_thread::sleep_for(std::chrono::microseconds(kHeldReplyUs) +
                              std::chrono::milliseconds(100));

  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[1] = {"127.0.0.1", port};
  TcpTransport mux(7200, /*listen_port=*/0, peers);
  ASSERT_TRUE(mux.start());
  auto endpoint = mux.client_endpoint(client);
  ASSERT_TRUE(endpoint);
  auto client_inbox = std::make_shared<Inbox>();
  endpoint->register_sink(0, client_inbox);
  ASSERT_TRUE(endpoint->send(1, 0, to_bytes("request")));
  // Delivered after the hello, so the hello has been handled.
  ASSERT_TRUE(
      replica_inbox->queue().pop_for(std::chrono::microseconds(2'000'000)));
  EXPECT_EQ(expired.value() - expired_before, 1u);

  // Frames on one connection keep their order: the first to arrive is
  // the one sent after the hello.
  ASSERT_TRUE(replica.send(client, 0, to_bytes("fresh")));
  auto reply =
      client_inbox->queue().pop_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(reply);
  EXPECT_EQ(to_string(reply->bytes), "fresh");

  mux.shutdown();
  replica.shutdown();
}

// A client whose connection closed is remembered so replies to it fail at
// once, but a hello is unauthenticated: clients that connect, say hello and
// leave must not grow the replica's tables without bound.
TEST(TcpHeldReplies, ClosedClientsAreForgottenAfterTheHoldDeadline) {
  const std::uint16_t port = pick_port(25500);
  std::map<crypto::KeyNodeId, TcpPeer> none;
  TcpTransport replica(4, port, none);
  auto replica_inbox = std::make_shared<Inbox>();
  replica.register_sink(0, replica_inbox);
  ASSERT_TRUE(replica.start());
  auto& registry = metrics::MetricsRegistry::global();
  metrics::Gauge& accepted = registry.gauge("tcp.node4.accepted_conns");
  metrics::Gauge& closed = registry.gauge("tcp.node4.closed_clients");
  metrics::Counter& held = registry.counter("tcp.node4.lane0.replies_held");

  std::map<crypto::KeyNodeId, TcpPeer> peers;
  peers[4] = {"127.0.0.1", port};
  TcpTransport mux(7300, /*listen_port=*/0, peers);
  ASSERT_TRUE(mux.start());
  constexpr int kClients = 100;
  // Each client says hello (its frame arrives after the hello) and leaves.
  auto connect_and_leave = [&](crypto::KeyNodeId first) {
    for (int i = 0; i < kClients; ++i) {
      auto endpoint = mux.client_endpoint(first + i);
      ASSERT_TRUE(endpoint);
      endpoint->register_sink(0, std::make_shared<Inbox>());
      ASSERT_TRUE(endpoint->send(4, 0, to_bytes("hello")));
      ASSERT_TRUE(
          replica_inbox->queue().pop_for(std::chrono::microseconds(2'000'000)));
      endpoint->shutdown();
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (accepted.value() > 0 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(accepted.value(), 0) << "the replica kept connections open";
  };

  // The last client of a wave closed just now: it is remembered.
  const crypto::KeyNodeId first = protocol::kClientIdBase + 400;
  connect_and_leave(first);
  EXPECT_GT(closed.value(), 0);
  EXPECT_FALSE(replica.send(first + kClients - 1, 0, to_bytes("late")))
      << "a reply to a closed client was held";

  // Forgotten a hold deadline (plus one sweep period) later, on a close.
  std::this_thread::sleep_for(std::chrono::microseconds(kHeldReplyUs * 5 / 4) +
                              std::chrono::milliseconds(100));
  connect_and_leave(first + kClients);
  EXPECT_LE(closed.value(), kClients) << "closed clients were never forgotten";
  EXPECT_FALSE(replica.send(first + 2 * kClients - 1, 0, to_bytes("late")));
  // A forgotten client is one the replica has not heard from.
  const std::uint64_t held_before = held.value();
  EXPECT_TRUE(replica.send(first, 0, to_bytes("later")));
  EXPECT_EQ(held.value() - held_before, 1u);

  mux.shutdown();
  replica.shutdown();
}

}  // namespace
}  // namespace copbft::test
