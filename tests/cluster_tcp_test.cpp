// COP over loopback TCP: four threaded replicas, each on its own
// TcpTransport whose lane loops its pillars drive, with real crypto and
// real clients. Listen ports are fixed per test in 21100–21543, below the
// kernel's ephemeral range and clear of every other test's ports.
#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "app/kv_store.hpp"
#include "protocol/verifier.hpp"
#include "support/cluster_fixture.hpp"

namespace copbft::test {
namespace {

using core::CopReplica;
using protocol::ReplicaId;
using protocol::SeqNum;

ClusterOptions tcp_options(std::uint16_t base_port, std::uint32_t pillars) {
  ClusterOptions options;
  options.arch = Arch::kCop;
  options.num_pillars = pillars;
  options.net = Net::kTcp;
  options.base_port = base_port;
  return options;
}

void use_kv_store(ClusterOptions& options) {
  options.make_service = [](const crypto::CryptoProvider& crypto) {
    return std::make_unique<app::KvStore>(crypto);
  };
}

Bytes put_op(int i) {
  return app::KvOp{app::KvOpCode::kPut, "key-" + std::to_string(i % 9),
                   to_bytes("value-" + std::to_string(i))}
      .encode();
}

/// Waits until every replica has executed up to the highest frontier any
/// of them reached.
bool converged(Cluster& cluster) {
  SeqNum target = 0;
  for (ReplicaId r = 0; r < 4; ++r)
    target =
        std::max(target, cluster.replica(r).stats().exec.last_executed_seq);
  return wait_for_all_replicas(cluster, [target](const auto& stats) {
    return stats.exec.last_executed_seq >= target;
  });
}

/// Compares every replica's service state with replica 0's; call after
/// stop().
void expect_same_state(Cluster& cluster) {
  const crypto::Digest reference =
      dynamic_cast<CopReplica&>(cluster.replica(0)).service().state_digest();
  for (ReplicaId r = 1; r < 4; ++r)
    EXPECT_EQ(
        dynamic_cast<CopReplica&>(cluster.replica(r)).service().state_digest(),
        reference)
        << "replica " << r << " diverged";
}

/// True when a pillar already drives the loop that serves `lane`: the
/// transport refuses a second claimant.
bool lane_is_driven(transport::TcpTransport& socket, transport::LaneId lane) {
  auto loop = socket.claim_lane(lane);
  if (!loop) return true;
  loop->release();
  return false;
}

int count_open_fds() {
  int count = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (::readdir(dir) != nullptr) ++count;
    ::closedir(dir);
  }
  return count;
}

TEST(TcpCluster, TwoPillarsCompleteCheckpointAndAgree) {
  ClusterOptions options = tcp_options(21100, 2);
  use_kv_store(options);
  options.runtime.protocol.checkpoint_interval = 20;
  options.runtime.protocol.window = 80;
  options.runtime.protocol.max_batch = 1;
  options.runtime.gap_timeout_us = 1'000;
  Cluster cluster(std::move(options));
  cluster.start();
  for (ReplicaId r = 0; r < 4; ++r)
    for (transport::LaneId lane = 0; lane < 2; ++lane)
      EXPECT_TRUE(lane_is_driven(cluster.socket(r), lane))
          << "replica " << r << " lane " << lane;

  client::Client* clients[] = {&cluster.add_client_on_pillar(0, 8),
                               &cluster.add_client_on_pillar(1, 8)};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    for (auto* client : clients)
      ASSERT_TRUE(client->invoke_async(
          put_op(i), 0, [&done](Bytes, std::uint64_t) { ++done; }));
  for (auto* client : clients) client->drain();
  EXPECT_EQ(done.load(), 200);

  ASSERT_TRUE(wait_for_all_replicas(cluster, [](const auto& stats) {
    return stats.core.checkpoints_stable > 0 || stats.exec.state_installs > 0;
  })) << "a replica neither stabilized nor installed a checkpoint";
  ASSERT_TRUE(converged(cluster));
  cluster.stop();
  expect_same_state(cluster);
}

// Four pillars on the default two lane loops: pillars 0 and 1 drive them,
// and the frames of pillars 2 and 3 reach their queues from those rounds.
TEST(TcpCluster, FourPillarsShareTwoLaneLoops) {
  Cluster cluster(tcp_options(21200, 4));
  cluster.start();
  for (transport::LaneId lane = 0; lane < 5; ++lane)
    EXPECT_TRUE(lane_is_driven(cluster.socket(0), lane)) << "lane " << lane;

  std::vector<client::Client*> clients;
  for (std::uint32_t p = 0; p < 4; ++p)
    clients.push_back(&cluster.add_client_on_pillar(p, 8));
  std::atomic<int> done{0};
  for (int i = 0; i < 30; ++i)
    for (auto* client : clients)
      ASSERT_TRUE(client->invoke_async(
          to_bytes("x"), 0, [&done](Bytes, std::uint64_t) { ++done; }));
  for (auto* client : clients) client->drain();
  EXPECT_EQ(done.load(), 120);

  cluster.stop();
  auto& cop = dynamic_cast<CopReplica&>(cluster.replica(0));
  for (std::uint32_t p = 0; p < 4; ++p)
    EXPECT_GT(cop.pillar(p).core_stats().instances_delivered, 0u)
        << "pillar " << p;
}

// f = 1: with replica 3 crashed (its sockets closed), sends to it fail at
// once instead of re-dialing, so the others keep their pace.
TEST(TcpCluster, SurvivesCrashedReplica) {
  Cluster cluster(tcp_options(21300, 2));
  cluster.start();
  auto& client = cluster.add_client(0, /*window=*/1);
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(client.invoke(to_bytes("before")).has_value()) << i;

  cluster.crash(3);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 40; ++i)
    ASSERT_TRUE(client.invoke(to_bytes("after")).has_value()) << i;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5))
      << "40 requests after the crash";
}

// Replica 3 starts after its peers have truncated their logs past its
// window, so retransmission alone cannot catch it up: it must install a
// peer checkpoint fetched over lane NP (on pillar 0's loop).
TEST(TcpCluster, LateReplicaRejoinsThroughStateTransfer) {
  ClusterOptions options = tcp_options(21400, 2);
  use_kv_store(options);
  options.runtime.protocol.checkpoint_interval = 10;
  options.runtime.protocol.window = 40;
  options.runtime.gap_timeout_us = 1'000;
  options.runtime.state_transfer_timeout_us = 100'000;
  Cluster cluster(std::move(options));
  for (ReplicaId r = 0; r < 3; ++r) cluster.start_replica(r);

  auto& client = cluster.add_client();
  int next = 0;
  auto put = [&] { ASSERT_TRUE(client.invoke(put_op(next++))) << next; };
  while (next < 75) put();

  cluster.start_replica(3);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cluster.replica(3).stats().exec.state_installs == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replica 3 never installed a transferred checkpoint";
    put();
  }
  const SeqNum installed = cluster.replica(3).stats().exec.installed_seq;
  EXPECT_GT(installed, 40u) << "installed past the initial window";
  // Clients keep sending while replica 3 catches up. Instances its peers
  // announced while its install was in flight were dropped as over its
  // window and are never fetched afterwards, so without fresh traffic it
  // can sit at the installed checkpoint until the next install (an open
  // protocol item, not a transport one).
  auto behind = [&] {
    const SeqNum frontier = cluster.replica(0).stats().exec.last_executed_seq;
    return cluster.replica(3).stats().exec.last_executed_seq <= installed ||
           cluster.replica(3).stats().exec.last_executed_seq < frontier;
  };
  while (behind()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replica 3 did not catch up past the installed checkpoint";
    put();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(converged(cluster));
  cluster.stop();
  expect_same_state(cluster);
}

// Replicas then transports, or transports then replicas: either order
// ends within the bound and closes every socket, eventfd and epoll set.
TEST(TcpCluster, TeardownInEitherOrderLeaksNoDescriptors) {
  const int baseline = count_open_fds();
  for (bool transports_first : {false, true}) {
    Cluster cluster(tcp_options(transports_first ? 21520 : 21500, 2));
    cluster.start();
    auto& client = cluster.add_client();
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(client.invoke(to_bytes("t")).has_value()) << i;
    const auto start = std::chrono::steady_clock::now();
    if (transports_first) cluster.shutdown_transports();
    cluster.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5))
        << (transports_first ? "transports first" : "replicas first");
  }
  EXPECT_EQ(count_open_fds(), baseline);
}

// A client's first request can reach the backups through the leader's
// pre-prepare and be executed there before the client has dialed them.
// Their replies wait for the client's hello, so the client still collects
// f+1 matching replies; without the wait only the leader's arrived.
TEST(TcpCluster, BackupsReplyToAClientThatDialsThemAfterExecuting) {
  constexpr std::uint16_t kBasePort = 21540;
  Cluster cluster(tcp_options(kBasePort, 2));
  cluster.start();

  const protocol::ClientId id = protocol::kClientIdBase + 77;
  const transport::LaneId lane = id % 2;
  std::map<crypto::KeyNodeId, transport::TcpPeer> peers;
  std::vector<crypto::KeyNodeId> replicas;
  for (ReplicaId r = 0; r < 4; ++r) {
    peers[protocol::replica_node(r)] = {
        "127.0.0.1", static_cast<std::uint16_t>(kBasePort + r)};
    replicas.push_back(protocol::replica_node(r));
  }
  transport::TcpTransport socket(protocol::client_node(id),
                                 /*listen_port=*/0, peers);
  auto inbox = std::make_shared<transport::Inbox>();
  socket.register_sink(lane, inbox);
  ASSERT_TRUE(socket.start());

  protocol::Request req;
  req.client = id;
  req.id = 1;
  req.payload = to_bytes("first");
  req.auth = crypto::Authenticator::build(
      cluster.crypto(), protocol::client_node(id), replicas,
      protocol::request_authenticated_bytes(req));
  ASSERT_TRUE(socket.send(protocol::replica_node(0), lane,
                          protocol::encode_message(req)));
  ASSERT_TRUE(wait_for_all_replicas(cluster, [](const auto& stats) {
    return stats.exec.requests_executed >= 1;
  })) << "a backup did not execute the request";

  // Dial the backups: an empty frame carries the hello and nothing a
  // pillar accepts.
  for (ReplicaId r = 1; r < 4; ++r)
    ASSERT_TRUE(socket.send(protocol::replica_node(r), lane, Bytes{}));

  protocol::CryptoVerifier verifier(cluster.crypto(),
                                    protocol::client_node(id));
  std::map<ReplicaId, Bytes> results;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (results.size() < 4 && std::chrono::steady_clock::now() < deadline) {
    auto frame = inbox->queue().pop_for(std::chrono::milliseconds(100));
    if (!frame) continue;
    auto decoded = protocol::decode_message(frame->bytes);
    ASSERT_TRUE(decoded);
    const auto& reply = std::get<protocol::Reply>(decoded->msg);
    EXPECT_EQ(reply.client, id);
    EXPECT_EQ(reply.id, 1u);
    protocol::IncomingMessage im;
    im.msg = decoded->msg;
    im.raw = std::move(frame->bytes);
    im.body_size = decoded->body_size;
    EXPECT_TRUE(verifier.verify(im, protocol::replica_node(reply.replica)));
    results[reply.replica] = reply.result;
  }
  ASSERT_TRUE(results.contains(0)) << "the leader's reply";
  std::size_t matching = 0;
  for (const auto& [replica, result] : results)
    if (result == results.at(0)) ++matching;
  EXPECT_GE(matching, 2u) << "f+1 matching replies";
  EXPECT_EQ(results.size(), 4u) << "every backup's reply reached the client";

  socket.shutdown();
  cluster.stop();
}

}  // namespace
}  // namespace copbft::test
