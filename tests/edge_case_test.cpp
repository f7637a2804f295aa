#include <gtest/gtest.h>

#include "app/null_service.hpp"
#include "core/cop_replica.hpp"
#include "core/smart_replica.hpp"
#include "core/top_replica.hpp"
#include "support/core_harness.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

ProtocolConfig edge_config() {
  ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.max_faulty = 1;
  cfg.checkpoint_interval = 10;
  cfg.window = 40;
  cfg.max_batch = 1;
  cfg.view_change_timeout_us = 0;
  cfg.retransmit_interval_us = 0;
  return cfg;
}

// ---- configuration validation ----------------------------------------

TEST(ConfigValidation, RejectsTooFewReplicas) {
  ProtocolConfig cfg = edge_config();
  cfg.num_replicas = 3;  // < 3f + 1
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsWindowSmallerThanCheckpointInterval) {
  ProtocolConfig cfg = edge_config();
  cfg.window = cfg.checkpoint_interval - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsZeroBatchAndPillars) {
  ProtocolConfig cfg = edge_config();
  cfg.max_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = edge_config();
  cfg.num_pillars = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, LargerGroupsQuorums) {
  ProtocolConfig cfg = edge_config();
  cfg.num_replicas = 7;
  cfg.max_faulty = 2;
  cfg.validate();
  EXPECT_EQ(cfg.quorum(), 5u);
  EXPECT_EQ(cfg.weak_quorum(), 3u);
}

TEST(ReplicaConstruction, ArchitectureInvariantsEnforced) {
  auto crypto = crypto::make_real_crypto(1);
  FakeTransport transport;
  core::ReplicaRuntimeConfig cfg;
  cfg.num_pillars = 2;  // invalid for TOP/SMaRt
  cfg.protocol.num_pillars = 2;
  EXPECT_THROW(core::TopReplica(0, cfg,
                                std::make_unique<app::NullService>(), *crypto,
                                transport),
               std::invalid_argument);
  cfg.num_pillars = 1;
  cfg.protocol.num_pillars = 1;
  cfg.protocol.max_active_proposals = 0;  // SMaRt must be single-instance
  EXPECT_THROW(core::SmartReplica(0, cfg,
                                  std::make_unique<app::NullService>(),
                                  *crypto, transport),
               std::invalid_argument);
  cfg.num_pillars = 2;  // pillar slices must match the leader scheme's NP
  cfg.protocol.num_pillars = 3;
  EXPECT_THROW(core::CopReplica(0, cfg,
                                std::make_unique<app::NullService>(), *crypto,
                                transport),
               std::invalid_argument);
}

// ---- protocol core edges -------------------------------------------------

TEST(CoreEdges, RepliesAndRequestsViaOnMessageAreRejected) {
  PillarGroupHarness h({edge_config()});
  IncomingMessage reply;
  reply.msg = Reply{0, 1001, 1, 2, to_bytes("r"), {}};
  h.core(0).on_message(std::move(reply), 0);
  EXPECT_EQ(h.core(0).stats().invalid_dropped, 1u);
}

TEST(CoreEdges, FollowerNeverProposesUnderFixedLeadership) {
  PillarGroupHarness h({edge_config()});
  for (int i = 1; i <= 10; ++i)
    h.client_request(1001, i, to_bytes("f"), {1, 2, 3});  // leader 0 excluded
  // Followers hold the requests but must not propose.
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.core(r).stats().proposals, 0u);
    EXPECT_EQ(h.core(r).pending_requests(), 10u);
  }
  EXPECT_EQ(h.in_flight(), 0u);
}

TEST(CoreEdges, ProposalAtWindowBoundary) {
  auto cfg = edge_config();
  cfg.window = 10;
  PillarGroupHarness h({cfg, SeqSlice{0, 1}, 1, false, 0.0, nullptr,
                        /*auto_checkpoint=*/false});
  for (int i = 1; i <= 12; ++i) h.client_request(1001, i, to_bytes("w"), {0});
  h.run_until_quiescent();
  // Exactly seqs 1..10 (the window) committed; 11 and 12 held back.
  auto batches = h.delivered_sorted(0);
  ASSERT_EQ(batches.size(), 10u);
  EXPECT_EQ(batches.back().seq, 10u);
  EXPECT_EQ(h.core(0).pending_requests(), 2u);
}

TEST(CoreEdges, EmptyPayloadRequestsAreOrdered) {
  PillarGroupHarness h({edge_config()});
  h.client_request(1001, 1, Bytes{});
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered_sorted(0).size(), 1u);
  EXPECT_TRUE(h.delivered_sorted(0)[0].requests.at(0).payload.empty());
}

TEST(CoreEdges, ManyClientsInterleavedIdsStayDistinct) {
  auto cfg = edge_config();
  cfg.max_batch = 16;
  PillarGroupHarness h({cfg});
  // Two clients using the *same* request ids: keys must not collide.
  for (int i = 1; i <= 10; ++i) {
    h.client_request(1001, i, to_bytes("a"));
    h.client_request(1002, i, to_bytes("b"));
  }
  h.run_until_quiescent();
  std::size_t total = 0;
  for (const auto& b : h.delivered_sorted(0)) total += b.requests.size();
  EXPECT_EQ(total, 20u);
}

TEST(CoreEdges, CheckpointVoteForGarbageCollectedSeqIgnored) {
  PillarGroupHarness h({edge_config()});
  for (int i = 1; i <= 12; ++i) h.client_request(1001, i, to_bytes("g"));
  h.run_until_quiescent();
  ASSERT_GE(h.core(0).stable_seq(), 10u);

  auto before = h.core(0).stats();
  IncomingMessage im;
  im.msg = CheckpointMsg{10, {}, 1, {}};  // at or below stable
  h.core(0).on_message(std::move(im), h.now());
  EXPECT_EQ(h.core(0).stats().macs_verified, before.macs_verified);
}

TEST(CoreEdges, StableDigestMismatchDoesNotStabilizeEarly) {
  PillarGroupHarness h({edge_config()});
  auto& core = h.core(0);
  crypto::Digest a, b;
  a.bytes.fill(0x0a);
  b.bytes.fill(0x0b);
  // Votes split 2 vs 1 across digests: no 2f+1 matching set.
  IncomingMessage v1;
  v1.msg = CheckpointMsg{10, a, 1, {}};
  core.on_message(std::move(v1), 0);
  IncomingMessage v2;
  v2.msg = CheckpointMsg{10, a, 2, {}};
  core.on_message(std::move(v2), 0);
  IncomingMessage v3;
  v3.msg = CheckpointMsg{10, b, 3, {}};
  core.on_message(std::move(v3), 0);
  EXPECT_EQ(core.stable_seq(), 0u);
  // The leader's own (matching) vote completes the quorum.
  core.start_checkpoint(10, a, 0);
  EXPECT_EQ(core.stable_seq(), 10u);
}

TEST(CoreEdges, SliceAtOffsetZeroSkipsGenesis) {
  PillarGroupHarness h({edge_config(), SeqSlice{0, 3}});
  EXPECT_EQ(h.core(0).next_proposal_seq(), 3u) << "seq 0 is genesis";
  PillarGroupHarness h2({edge_config(), SeqSlice{2, 3}});
  EXPECT_EQ(h2.core(0).next_proposal_seq(), 2u);
}

// ---- histograms of verification policy over load ------------------------

TEST(CoreEdges, VerificationSavingsScaleWithGroupSize) {
  // Each instance carries ~f redundant prepares and ~f redundant commits;
  // in-order verification skips them. The skipped *fraction* hovers near
  // 1/3 of vote traffic, and the absolute savings grow with the group.
  auto run_group = [](std::uint32_t n, std::uint32_t f) {
    ProtocolConfig cfg = edge_config();
    cfg.num_replicas = n;
    cfg.max_faulty = f;
    PillarGroupHarness h({cfg});
    for (int i = 1; i <= 20; ++i) h.client_request(1001, i, to_bytes("v"));
    h.run_until_quiescent();
    return h.core(1).stats();
  };
  auto s4 = run_group(4, 1);
  auto s7 = run_group(7, 2);
  auto fraction = [](const CoreStats& s) {
    return static_cast<double>(s.verifications_skipped) /
           static_cast<double>(s.macs_verified + s.verifications_skipped);
  };
  EXPECT_NEAR(fraction(s4), 1.0 / 3.0, 0.1);
  EXPECT_NEAR(fraction(s7), 1.0 / 3.0, 0.1);
  EXPECT_GT(s7.verifications_skipped, s4.verifications_skipped)
      << "absolute savings grow with the group";
}

}  // namespace
}  // namespace copbft::test
