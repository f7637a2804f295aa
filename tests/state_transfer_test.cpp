// Checkpoint-based state transfer: service snapshot/restore, execution-
// stage install, the transfer manager's wire protocol (including a
// Byzantine donor serving a corrupt snapshot), a threaded-cluster
// fault-injection run, and the deterministic simulator reproduction.
#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>

#include "app/kv_store.hpp"
#include "app/null_service.hpp"
#include "core/checkpoint_artifact.hpp"
#include "core/execution_stage.hpp"
#include "core/outbound.hpp"
#include "core/state_transfer.hpp"
#include "sim/simulation.hpp"
#include "support/cluster_fixture.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

Request kv_put(ClientId client, RequestId id, const std::string& key,
               const std::string& value) {
  Request req;
  req.client = client;
  req.id = id;
  req.payload = app::KvOp{app::KvOpCode::kPut, key, to_bytes(value)}.encode();
  return req;
}

// ---- service snapshot / restore -------------------------------------------

TEST(ServiceSnapshot, KvStoreRoundTrip) {
  auto crypto = crypto::make_real_crypto(5);
  app::KvStore donor(*crypto);
  for (int i = 0; i < 12; ++i)
    donor.execute(kv_put(1001, static_cast<RequestId>(i + 1),
                         "key-" + std::to_string(i % 5),
                         "value-" + std::to_string(i)));

  app::KvStore fresh(*crypto);
  ASSERT_TRUE(fresh.restore(donor.snapshot(), donor.state_digest()));
  EXPECT_EQ(fresh.state_digest(), donor.state_digest());
  EXPECT_EQ(fresh.snapshot(), donor.snapshot());
  EXPECT_EQ(fresh.size(), donor.size());
  const Bytes* value = fresh.lookup("key-2");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, to_bytes("value-7"));
}

TEST(ServiceSnapshot, KvStoreRejectsTamperedSnapshotAtomically) {
  auto crypto = crypto::make_real_crypto(5);
  app::KvStore donor(*crypto);
  donor.execute(kv_put(1001, 1, "alpha", "one"));
  donor.execute(kv_put(1001, 2, "beta", "two"));

  Bytes tampered = donor.snapshot();
  tampered.back() ^= Byte{0x01};

  app::KvStore target(*crypto);
  target.execute(kv_put(1001, 3, "existing", "kept"));
  const crypto::Digest before = target.state_digest();
  EXPECT_FALSE(target.restore(tampered, donor.state_digest()));
  // Failed restores must not touch the live state.
  EXPECT_EQ(target.state_digest(), before);
  ASSERT_NE(target.lookup("existing"), nullptr);
  EXPECT_EQ(target.lookup("alpha"), nullptr);
}

TEST(ServiceSnapshot, NullServiceRoundTrip) {
  app::NullService donor(8);
  Request req;
  req.client = 1001;
  req.payload = to_bytes("x");
  for (RequestId id = 1; id <= 5; ++id) {
    req.id = id;
    donor.execute(req);
  }
  app::NullService fresh(8);
  ASSERT_TRUE(fresh.restore(donor.snapshot(), donor.state_digest()));
  EXPECT_EQ(fresh.state_digest(), donor.state_digest());
  EXPECT_FALSE(fresh.restore(donor.snapshot(), crypto::Digest{}));
}

// ---- execution-stage install ----------------------------------------------

/// Captures the (seq, digest, artifact) triples the stage hands off on
/// checkpoint boundaries.
struct SnapshotLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::tuple<SeqNum, crypto::Digest, Bytes>> taken;

  void record(SeqNum seq, const crypto::Digest& digest, Bytes artifact) {
    std::lock_guard lock(mutex);
    taken.emplace_back(seq, digest, std::move(artifact));
    cv.notify_all();
  }
  bool wait_count(std::size_t count, int ms = 5000) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, std::chrono::milliseconds(ms),
                       [&] { return taken.size() >= count; });
  }
};

class InstallTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_pillars = 1;
    config_.protocol.num_pillars = 1;
    config_.protocol.checkpoint_interval = 10;
    config_.protocol.window = 40;
    crypto_ = crypto::make_real_crypto(7);
  }

  void TearDown() override {
    if (laggard_) laggard_->stop();
    if (donor_) donor_->stop();
  }

  /// Runs a donor stage over `upto` single-put batches and returns the
  /// captured checkpoint artifact at seq `upto`.
  std::tuple<SeqNum, crypto::Digest, Bytes> donor_checkpoint(SeqNum upto) {
    donor_service_ = std::make_unique<app::KvStore>(*crypto_);
    donor_ = std::make_unique<ExecutionStage>(
        /*self=*/0, config_, *donor_service_, *crypto_, donor_transport_);
    donor_->set_snapshot_fn(
        [this](SeqNum seq, const crypto::Digest& digest, Bytes artifact) {
          snapshots_.record(seq, digest, std::move(artifact));
        });
    donor_->start();
    for (SeqNum s = 1; s <= upto; ++s) donor_->admit(put_batch(s));
    EXPECT_TRUE(snapshots_.wait_count(upto / 10));
    std::lock_guard lock(snapshots_.mutex);
    return snapshots_.taken.back();
  }

  void start_laggard() {
    laggard_service_ = std::make_unique<app::KvStore>(*crypto_);
    laggard_ = std::make_unique<ExecutionStage>(
        /*self=*/3, config_, *laggard_service_, *crypto_, laggard_transport_);
    laggard_->start();
  }

  CommittedBatch put_batch(SeqNum seq) {
    auto requests = std::make_shared<std::vector<Request>>();
    requests->push_back(kv_put(1001, seq, "key-" + std::to_string(seq % 3),
                               "value-" + std::to_string(seq)));
    return CommittedBatch{seq, 0, requests, 0};
  }

  /// Submits an install and waits for its completion callback.
  bool install(ExecutionStage& stage, SeqNum seq, const crypto::Digest& digest,
               Bytes artifact) {
    std::promise<bool> done;
    auto result = done.get_future();
    stage.submit_install(InstallState{
        seq, digest, std::move(artifact),
        [&done](bool ok) { done.set_value(ok); }});
    EXPECT_EQ(result.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    return result.get();
  }

  ReplicaRuntimeConfig config_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  FakeTransport donor_transport_;
  FakeTransport laggard_transport_;
  SnapshotLog snapshots_;
  std::unique_ptr<app::KvStore> donor_service_;
  std::unique_ptr<app::KvStore> laggard_service_;
  std::unique_ptr<ExecutionStage> donor_;
  std::unique_ptr<ExecutionStage> laggard_;
};

TEST_F(InstallTest, InstallAdvancesFrontierAndResumesExecution) {
  auto [seq, digest, artifact] = donor_checkpoint(10);
  ASSERT_EQ(seq, 10u);
  start_laggard();

  // The laggard buffered a batch beyond its frontier; nothing executes.
  laggard_->admit(put_batch(12));
  ASSERT_TRUE(install(*laggard_, seq, digest, std::move(artifact)));
  EXPECT_EQ(laggard_->next_seq(), 11u);
  EXPECT_EQ(laggard_->stats().state_installs, 1u);
  EXPECT_EQ(laggard_->stats().installed_seq, 10u);
  EXPECT_EQ(laggard_->stats().last_executed_seq, 10u);
  EXPECT_EQ(laggard_service_->state_digest(), donor_service_->state_digest());

  // Execution resumes: seq 11 closes the gap to the buffered seq 12.
  laggard_->admit(put_batch(11));
  for (int spin = 0; spin < 200 && laggard_->next_seq() < 13; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(laggard_->next_seq(), 13u);
  EXPECT_EQ(laggard_->stats().requests_executed, 2u);
}

TEST_F(InstallTest, InstalledClientTableSuppressesReExecution) {
  auto [seq, digest, artifact] = donor_checkpoint(10);
  start_laggard();
  ASSERT_TRUE(install(*laggard_, seq, digest, std::move(artifact)));

  // Request (1001, 7) executed at seq 7 on the donor; its dedup entry
  // rode the transferred client table, so a retransmitted commit is
  // suppressed instead of double-executed.
  auto requests = std::make_shared<std::vector<Request>>();
  requests->push_back(kv_put(1001, 7, "key-1", "value-7"));
  laggard_->admit(CommittedBatch{11, 0, requests, 0});
  for (int spin = 0; spin < 200 && laggard_->next_seq() < 12; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(laggard_->stats().duplicates_suppressed, 1u);
  EXPECT_EQ(laggard_->stats().requests_executed, 0u);
}

TEST_F(InstallTest, InstallRejectsCorruptArtifact) {
  auto [seq, digest, artifact] = donor_checkpoint(10);
  start_laggard();
  Bytes corrupt = artifact;
  corrupt[corrupt.size() / 2] ^= Byte{0x40};
  EXPECT_FALSE(install(*laggard_, seq, digest, std::move(corrupt)));
  EXPECT_EQ(laggard_->stats().installs_rejected, 1u);
  EXPECT_EQ(laggard_->next_seq(), 1u) << "rejected install must not move";

  // The intact artifact still installs afterwards.
  EXPECT_TRUE(install(*laggard_, seq, digest, std::move(artifact)));
  EXPECT_EQ(laggard_->next_seq(), 11u);
}

TEST_F(InstallTest, StaleInstallIsANoOp) {
  auto [seq, digest, artifact] = donor_checkpoint(10);
  // The donor itself is already past seq 10: installing its own
  // checkpoint must succeed without rewinding anything.
  EXPECT_TRUE(install(*donor_, seq, digest, std::move(artifact)));
  EXPECT_EQ(donor_->next_seq(), 11u);
  EXPECT_EQ(donor_->stats().state_installs, 0u);
}

// ---- transfer manager (wire protocol, Byzantine donor) ---------------------

class ManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_pillars = 2;
    config_.protocol.num_pillars = 2;
    config_.protocol.checkpoint_interval = 10;
    config_.protocol.window = 40;
    config_.state_transfer_timeout_us = 100'000;
    crypto_ = crypto::make_real_crypto(7);
  }

  void TearDown() override {
    if (manager_) manager_->stop();
    if (exec_) exec_->stop();
  }

  void start_manager(ReplicaId self) {
    service_ = std::make_unique<app::KvStore>(*crypto_);
    exec_ = std::make_unique<ExecutionStage>(
        self, config_, *service_, *crypto_, transport_);
    manager_ = std::make_unique<StateTransferManager>(
        self, config_, *crypto_, transport_, *exec_,
        [this](SeqNum seq, const crypto::Digest& digest, SeqNum upto) {
          std::lock_guard lock(mutex_);
          installed_ = std::tuple{seq, digest, upto};
          cv_.notify_all();
        });
    exec_->start();
    manager_->start();
  }

  bool wait_installed(int ms = 5000) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::milliseconds(ms),
                        [&] { return installed_.has_value(); });
  }

  /// Seals `msg` as coming from replica `from`, addressed to this manager.
  void deliver_from(ReplicaId from, Message msg) {
    Bytes frame = seal_message(msg, *crypto_, replica_node(from),
                               {replica_node(manager_self_)});
    manager_->deliver(transport::ReceivedFrame{replica_node(from),
                                               manager_->lane(),
                                               std::move(frame)});
  }

  std::vector<FakeTransport::Sent> wait_sent(std::size_t count,
                                             int ms = 5000) {
    for (int spin = 0; spin < ms / 10; ++spin) {
      if (transport_.sent_count() >= count) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return transport_.take_sent();
  }

  /// Builds a real checkpoint artifact by running a donor stage.
  std::tuple<SeqNum, crypto::Digest, Bytes, crypto::Digest> donor_artifact() {
    app::KvStore donor_service(*crypto_);
    FakeTransport donor_transport;
    ExecutionStage donor(/*self=*/0, config_, donor_service, *crypto_,
                         donor_transport);
    SnapshotLog snapshots;
    donor.set_snapshot_fn(
        [&snapshots](SeqNum seq, const crypto::Digest& digest, Bytes a) {
          snapshots.record(seq, digest, std::move(a));
        });
    donor.start();
    for (SeqNum s = 1; s <= 10; ++s) {
      auto requests = std::make_shared<std::vector<Request>>();
      requests->push_back(kv_put(1001, s, "key-" + std::to_string(s),
                                 "value-" + std::to_string(s)));
      donor.admit(CommittedBatch{s, 0, requests,
                                  static_cast<std::uint32_t>(s % 2)});
    }
    EXPECT_TRUE(snapshots.wait_count(1));
    donor.stop();
    std::lock_guard lock(snapshots.mutex);
    auto [seq, digest, artifact] = snapshots.taken.back();
    return {seq, digest, artifact, donor_service.state_digest()};
  }

  protocol::StateReply reply_from(ReplicaId peer, SeqNum seq,
                                  const crypto::Digest& digest, Bytes data) {
    protocol::StateReply reply;
    reply.seq = seq;
    reply.digest = digest;
    reply.certificate = {0, 1, 2};
    reply.chunk = 0;
    reply.chunk_count = 1;
    reply.data = std::move(data);
    reply.replica = peer;
    return reply;
  }

  ReplicaId manager_self_ = 3;
  ReplicaRuntimeConfig config_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  FakeTransport transport_;
  std::unique_ptr<app::KvStore> service_;
  std::unique_ptr<ExecutionStage> exec_;
  std::unique_ptr<StateTransferManager> manager_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<std::tuple<SeqNum, crypto::Digest, SeqNum>> installed_;
};

TEST_F(ManagerTest, ServesStableCheckpointInChunks) {
  config_.state_chunk_bytes = 16;  // force multi-chunk delivery
  manager_self_ = 0;
  start_manager(0);
  auto [seq, digest, artifact, service_digest] = donor_artifact();
  ASSERT_GT(artifact.size(), 16u);
  manager_->store_checkpoint(seq, digest, artifact);
  manager_->note_stable(seq, digest, {0, 1, 2});
  deliver_from(3, protocol::StateRequest{1, 3, {}});

  const std::size_t chunks = (artifact.size() + 15) / 16;
  auto sent = wait_sent(chunks);
  ASSERT_EQ(sent.size(), chunks);
  Bytes reassembled;
  for (const auto& s : sent) {
    EXPECT_EQ(s.to, replica_node(3));
    EXPECT_EQ(s.lane, manager_->lane());
    auto decoded = decode_message(s.frame);
    ASSERT_TRUE(decoded);
    const auto& reply = std::get<protocol::StateReply>(decoded->msg);
    EXPECT_EQ(reply.seq, seq);
    EXPECT_EQ(reply.digest, digest);
    EXPECT_EQ(reply.chunk_count, chunks);
    EXPECT_EQ(reply.certificate.size(), 3u);
    append(reassembled, reply.data);
  }
  EXPECT_EQ(reassembled, artifact);
  EXPECT_EQ(manager_->stats().snapshots_served, 1u);
}

TEST_F(ManagerTest, UnstableOrStaleCheckpointsAreNotServed) {
  manager_self_ = 0;
  start_manager(0);
  auto [seq, digest, artifact, service_digest] = donor_artifact();
  // Held but never agreed stable: must not be served.
  manager_->store_checkpoint(seq, digest, artifact);
  deliver_from(3, protocol::StateRequest{1, 3, {}});
  // Stable but below the requester's frontier: useless, must not be served.
  manager_->note_stable(seq, digest, {0, 1, 2});
  deliver_from(2, protocol::StateRequest{seq + 1, 2, {}});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(transport_.sent_count(), 0u);
  EXPECT_EQ(manager_->stats().snapshots_served, 0u);
}

TEST_F(ManagerTest, ByzantineSnapshotRejectedThenNextPeerSucceeds) {
  start_manager(3);
  auto [seq, digest, artifact, service_digest] = donor_artifact();

  manager_->note_peer_ahead(55);
  auto requests = wait_sent(3);
  ASSERT_EQ(requests.size(), 3u) << "StateRequest broadcast to every peer";
  for (const auto& s : requests) {
    auto decoded = decode_message(s.frame);
    ASSERT_TRUE(decoded);
    const auto& request = std::get<protocol::StateRequest>(decoded->msg);
    EXPECT_EQ(request.min_seq, 1u);
    EXPECT_EQ(request.replica, 3u);
  }
  EXPECT_EQ(manager_->stats().transfers_started, 1u);

  // Peer 0 is Byzantine: it attests the agreed (seq, digest) but serves a
  // corrupted snapshot. Peer 1 is honest. The f+1 = 2 matching
  // attestations admit the candidate; the digest check at install catches
  // the corruption and the manager falls over to peer 1.
  Bytes corrupt = artifact;
  corrupt[corrupt.size() / 2] ^= Byte{0x01};
  deliver_from(0, reply_from(0, seq, digest, std::move(corrupt)));
  deliver_from(1, reply_from(1, seq, digest, artifact));

  ASSERT_TRUE(wait_installed());
  auto [installed_seq, installed_digest, fetch_upto] = *installed_;
  EXPECT_EQ(installed_seq, seq);
  EXPECT_EQ(installed_digest, digest);
  EXPECT_EQ(fetch_upto, 55u) << "observed frontier drives the re-fetch";

  auto stats = manager_->stats();
  EXPECT_EQ(stats.snapshots_rejected, 1u) << "Byzantine snapshot detected";
  EXPECT_EQ(stats.transfers_completed, 1u);
  EXPECT_EQ(stats.installed_seq, seq);
  EXPECT_EQ(exec_->stats().installs_rejected, 1u);
  EXPECT_EQ(exec_->stats().state_installs, 1u);
  EXPECT_EQ(exec_->next_seq(), seq + 1);
  EXPECT_EQ(service_->state_digest(), service_digest)
      << "installed state matches the donor";
}

TEST_F(ManagerTest, SingleAttestationIsNotTrusted) {
  start_manager(3);
  auto [seq, digest, artifact, service_digest] = donor_artifact();
  manager_->note_peer_ahead(55);
  (void)wait_sent(3);

  // One peer alone — even with a complete, correct snapshot — is below
  // the f+1 attestation bar and must not be installed.
  deliver_from(1, reply_from(1, seq, digest, artifact));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(exec_->stats().state_installs, 0u);
  {
    std::lock_guard lock(mutex_);
    EXPECT_FALSE(installed_.has_value());
  }

  // A second, matching attestation crosses it.
  deliver_from(2, reply_from(2, seq, digest, artifact));
  ASSERT_TRUE(wait_installed());
  EXPECT_EQ(manager_->stats().transfers_completed, 1u);
}

// ---- threaded cluster: pause, truncate, rejoin -----------------------------

TEST(ClusterStateTransfer, StrandedReplicaRejoinsViaStateTransfer) {
  ClusterOptions options;
  options.arch = Arch::kCop;
  options.num_pillars = 2;
  options.runtime.protocol.checkpoint_interval = 10;
  options.runtime.protocol.window = 40;
  options.runtime.gap_timeout_us = 1'000;
  options.runtime.state_transfer_timeout_us = 100'000;
  options.make_service = [](const crypto::CryptoProvider& crypto) {
    return std::make_unique<app::KvStore>(crypto);
  };
  Cluster cluster(std::move(options));
  cluster.start();

  auto& client = cluster.add_client();
  auto put = [&](int i) {
    app::KvOp op{app::KvOpCode::kPut, "key-" + std::to_string(i % 9),
                 to_bytes("value-" + std::to_string(i))};
    auto reply = client.invoke(op.encode());
    ASSERT_TRUE(reply) << "put " << i;
  };
  for (int i = 0; i < 5; ++i) put(i);

  // Cut replica 3 off the network entirely, then push the cluster far
  // enough that its peers truncate their logs past replica 3's window:
  // retransmission alone can never catch it up again.
  cluster.network().set_filter(
      [](crypto::KeyNodeId from, crypto::KeyNodeId to, transport::LaneId) {
        return from != protocol::replica_node(3) &&
               to != protocol::replica_node(3);
      });
  for (int i = 5; i < 75; ++i) put(i);

  // Reconnect. Fresh traffic beyond the stranded window makes a pillar
  // report StateTransferNeeded; the manager fetches a peer checkpoint.
  cluster.network().set_filter({});
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  int extra = 75;
  while (cluster.replica(3).stats().exec.state_installs == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replica 3 never installed a transferred checkpoint";
    put(extra++);
  }

  // The rejoined replica executes new requests past the installed
  // checkpoint and converges with the cluster.
  const SeqNum installed = cluster.replica(3).stats().exec.installed_seq;
  EXPECT_GT(installed, 40u) << "stranded past the initial window";
  for (int i = 0; i < 10; ++i) put(extra++);
  auto caught_up = [&] {
    SeqNum target = cluster.replica(0).stats().exec.last_executed_seq;
    for (ReplicaId r = 0; r < 4; ++r)
      if (cluster.replica(r).stats().exec.last_executed_seq < target)
        return false;
    return true;
  };
  while (!caught_up()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replica 3 did not catch up past the installed checkpoint";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(cluster.replica(3).stats().exec.last_executed_seq, installed)
      << "execution resumed after the install";

  cluster.stop();
  crypto::Digest reference =
      dynamic_cast<core::CopReplica&>(cluster.replica(0))
          .service().state_digest();
  for (ReplicaId r = 1; r < 4; ++r)
    EXPECT_EQ(dynamic_cast<core::CopReplica&>(cluster.replica(r))
                  .service().state_digest(),
              reference)
        << "replica " << r << " diverged";
}

// ---- deterministic simulator reproduction ----------------------------------

TEST(SimStateTransfer, PausedReplicaRejoinsDeterministically) {
  sim::SimConfig config;
  config.arch = sim::SimArch::kCop;
  config.cores = 1;
  config.clients = 40;
  config.protocol.checkpoint_interval = 100;
  config.protocol.window = 400;
  // Fast retransmission so the post-install re-fetch of the in-window
  // tail completes within the simulated run, not in 200 ms quanta.
  config.protocol.retransmit_interval_us = 20'000;
  config.warmup = 300 * 1'000'000ULL;   // 300 ms
  config.measure = 300 * 1'000'000ULL;  // 300 ms
  using Kind = sim::SimConfig::FaultEvent::Kind;
  config.faults = {{100 * 1'000'000ULL, 3, Kind::kPause},    // cut at 100 ms...
                   {400 * 1'000'000ULL, 3, Kind::kResume}};  // ...back at 400

  sim::SimResult result = run_simulation(config);
  ASSERT_EQ(result.replica_next_seq.size(), 4u);
  const std::uint64_t laggard = result.replica_next_seq[3];
  const std::uint64_t cluster = result.replica_next_seq[0];
  EXPECT_GT(result.state_transfers, 0u)
      << "the paused replica must recover via state transfer, "
         "not retransmission";
  EXPECT_GT(cluster, 500u)
      << "the 2f+1 quorum kept committing through the fault";
  // The run is cut off mid-flight, so the laggard may trail by up to the
  // in-flight window on top of the protocol's own drift bound. Without
  // state transfer it would be stuck near its pause-time frontier, tens
  // of windows behind.
  EXPECT_GE(laggard + 2 * config.protocol.window, cluster)
      << "the laggard rejoined to within the drift bound";

  // Virtual time is deterministic: the same configuration replays to the
  // same trajectory bit for bit.
  sim::SimResult replay = run_simulation(config);
  EXPECT_EQ(replay.state_transfers, result.state_transfers);
  EXPECT_EQ(replay.replica_next_seq, result.replica_next_seq);
  EXPECT_EQ(replay.completed_ops, result.completed_ops);
}

}  // namespace
}  // namespace copbft::test
