// Proves every COP_INVARIANT site fires on a violating input.
//
// A capturing handler replaces the default abort so the firing thread
// (test, execution-stage or pillar thread) records the violation and
// continues; each test then asserts on the captured context. This is the
// debug-hook flavour of a death test and runs unchanged under ASan/TSan.
#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "app/null_service.hpp"
#include "common/invariant.hpp"
#include "core/checkpoint_artifact.hpp"
#include "core/execution_stage.hpp"
#include "core/pillar.hpp"
#include "protocol/wire.hpp"
#include "support/core_harness.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

struct Captured {
  std::string expression;
  std::string message;
  int line = 0;
};

std::mutex g_mutex;
std::condition_variable g_cv;
std::vector<Captured> g_fired;

void capture_violation(const InvariantViolation& v) {
  std::lock_guard lock(g_mutex);
  g_fired.push_back(Captured{v.expression, v.message, v.line});
  g_cv.notify_all();
}

class InvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !COP_INVARIANTS_ENABLED
    GTEST_SKIP() << "invariants compiled out (COP_ENABLE_INVARIANTS=OFF)";
#endif
    {
      std::lock_guard lock(g_mutex);
      g_fired.clear();
    }
    previous_ = set_invariant_handler(&capture_violation);
  }

  void TearDown() override {
    if (stage_) stage_->stop();
    set_invariant_handler(previous_);
  }

  /// Waits until at least `count` invariants fired (they fire on other
  /// threads) and returns a snapshot.
  std::vector<Captured> wait_fired(std::size_t count, int ms = 2000) {
    std::unique_lock lock(g_mutex);
    g_cv.wait_for(lock, std::chrono::milliseconds(ms),
                  [&] { return g_fired.size() >= count; });
    return g_fired;
  }

  void start_stage(std::uint32_t pillars) {
    config_.num_pillars = pillars;
    config_.protocol.num_pillars = pillars;
    config_.protocol.checkpoint_interval = 10;
    config_.protocol.window = 40;
    crypto_ = crypto::make_real_crypto(3);
    service_ = std::make_unique<app::NullService>(4);
    stage_ = std::make_unique<ExecutionStage>(
        /*self=*/1, config_, *service_, *crypto_, transport_);
    stage_->start();
  }

  CommittedBatch batch(SeqNum seq, std::uint32_t pillar, RequestId id) {
    auto requests = std::make_shared<std::vector<Request>>();
    Request req;
    req.client = 1001;
    req.id = id;
    req.payload = to_bytes("x");
    requests->push_back(std::move(req));
    return CommittedBatch{seq, 0, requests, pillar};
  }

  ReplicaRuntimeConfig config_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  std::unique_ptr<app::NullService> service_;
  FakeTransport transport_;
  std::unique_ptr<ExecutionStage> stage_;
  InvariantHandler previous_ = nullptr;
};

TEST_F(InvariantTest, GenesisSequenceNumberTrips) {
  start_stage(/*pillars=*/1);
  stage_->admit(batch(/*seq=*/0, /*pillar=*/0, /*id=*/1));
  auto fired = wait_fired(1);
  ASSERT_GE(fired.size(), 1u);
  EXPECT_NE(fired[0].expression.find("batch.seq != 0"), std::string::npos);
}

TEST_F(InvariantTest, PillarOwnershipPartitionTrips) {
  start_stage(/*pillars=*/2);
  // Sequence number 1 belongs to pillar 1 under c(p,i) = p + i*NP; a batch
  // claiming pillar 0 breaks the partition.
  stage_->admit(batch(/*seq=*/1, /*pillar=*/0, /*id=*/1));
  auto fired = wait_fired(1);
  ASSERT_GE(fired.size(), 1u);
  EXPECT_NE(fired[0].message.find("c(p,i)=p+i*NP"), std::string::npos);
}

TEST_F(InvariantTest, CheckpointWindowDriftBoundTrips) {
  start_stage(/*pillars=*/2);
  // window = 40 and the frontier is at 1: seq 45 is beyond the drift any
  // correct pillar could reach before the next checkpoint stabilized.
  stage_->admit(batch(/*seq=*/45, /*pillar=*/1, /*id=*/1));
  auto fired = wait_fired(1);
  ASSERT_GE(fired.size(), 1u);
  EXPECT_NE(fired[0].message.find("drift bound"), std::string::npos);
}

TEST_F(InvariantTest, ConflictingCommitForSameSeqTrips) {
  start_stage(/*pillars=*/2);
  // Both batches buffer behind the missing seq 1; the second commit for
  // seq 2 carries a different request, which would fork the total order.
  stage_->admit(batch(/*seq=*/2, /*pillar=*/0, /*id=*/20));
  stage_->admit(batch(/*seq=*/2, /*pillar=*/0, /*id=*/21));
  auto fired = wait_fired(1);
  ASSERT_GE(fired.size(), 1u);
  EXPECT_NE(fired[0].message.find("fork"), std::string::npos);
}

TEST_F(InvariantTest, MisalignedStartCheckpointTrips) {
  ProtocolConfig cfg;
  cfg.checkpoint_interval = 10;
  cfg.window = 40;
  PillarGroupHarness h({cfg});
  crypto::Digest digest;
  h.core(0).start_checkpoint(/*seq=*/7, digest, /*now_us=*/0);
  auto fired = wait_fired(1, /*ms=*/0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NE(fired[0].message.find("checkpoint interval"), std::string::npos);
}

TEST_F(InvariantTest, MisalignedStabilityNoticeTrips) {
  ProtocolConfig cfg;
  cfg.checkpoint_interval = 10;
  cfg.window = 40;
  PillarGroupHarness h({cfg});
  crypto::Digest digest;
  h.core(0).note_checkpoint_stable(/*seq=*/7, digest);
  auto fired = wait_fired(1, /*ms=*/0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NE(fired[0].message.find("stability notice"), std::string::npos);
}

TEST_F(InvariantTest, MisalignedStateInstallTrips) {
  start_stage(/*pillars=*/1);
  // Checkpoints only exist at interval boundaries (interval = 10); an
  // install at seq 7 cannot correspond to any agreed checkpoint.
  stage_->submit_install(InstallState{/*seq=*/7, crypto::Digest{}, {},
                                      [](bool) {}});
  auto fired = wait_fired(1);
  ASSERT_GE(fired.size(), 1u);
  EXPECT_NE(fired[0].message.find("checkpoint interval"), std::string::npos);
}

TEST_F(InvariantTest, RegressingStateInstallTrips) {
  start_stage(/*pillars=*/1);
  // A genuine install at seq 20 first: empty client table plus a fresh
  // NullService snapshot, with the matching composite digest.
  app::NullService donor(4);
  CheckpointArtifact artifact;
  {
    WireWriter w(artifact.client_table);
    w.u32(0);  // no clients
  }
  artifact.service_digest = donor.state_digest();
  artifact.service_snapshot = donor.snapshot();
  crypto::Digest digest = artifact.composite_digest(*crypto_);
  std::promise<bool> first;
  auto first_ok = first.get_future();
  stage_->submit_install(InstallState{
      /*seq=*/20, digest, artifact.encode(),
      [&first](bool ok) { first.set_value(ok); }});
  ASSERT_EQ(first_ok.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_TRUE(first_ok.get());

  // Rewinding below the installed checkpoint would fork the state.
  stage_->submit_install(InstallState{/*seq=*/10, digest, artifact.encode(),
                                      [](bool) {}});
  auto fired = wait_fired(1);
  ASSERT_GE(fired.size(), 1u);
  EXPECT_NE(fired[0].message.find("regresses"), std::string::npos);
}

TEST_F(InvariantTest, MisroutedCheckpointCommandTrips) {
  // A full pillar: seq 10 with interval 10 and NP=2 is owned by pillar
  // (10/10) % 2 = 1; routing the command to pillar 0 must trip.
  config_.num_pillars = 2;
  config_.protocol.num_pillars = 2;
  config_.protocol.checkpoint_interval = 10;
  config_.protocol.window = 40;
  crypto_ = crypto::make_real_crypto(3);
  service_ = std::make_unique<app::NullService>(4);
  stage_ = std::make_unique<ExecutionStage>(
      /*self=*/0, config_, *service_, *crypto_, transport_);
  InPlaceOutbound outbound(/*self=*/0, config_.protocol.num_replicas,
                           *crypto_, transport_);
  Pillar pillar(/*self=*/0, /*index=*/0, config_, *crypto_, *stage_,
                outbound, service_.get(), nullptr);
  pillar.start();
  crypto::Digest digest;
  pillar.post_command(StartCheckpoint{/*seq=*/10, digest});
  auto fired = wait_fired(1);
  pillar.stop();
  ASSERT_GE(fired.size(), 1u);
  EXPECT_NE(fired[0].message.find("owner"), std::string::npos);
}

}  // namespace
}  // namespace copbft::test
