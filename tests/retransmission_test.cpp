// Liveness under message loss: the protocol core's retransmission and
// FETCH/resend recovery paths (see protocol/pbft_core.cpp,
// retransmit_stalled / handle_fetch).
#include <gtest/gtest.h>

#include "support/core_harness.hpp"

namespace copbft::test {
namespace {

ProtocolConfig rt_config() {
  ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.max_faulty = 1;
  cfg.checkpoint_interval = 10;
  cfg.window = 40;
  cfg.max_batch = 1;
  cfg.view_change_timeout_us = 0;  // isolate retransmission from VC
  cfg.retransmit_interval_us = 100'000;
  return cfg;
}

Bytes payload(int i) { return to_bytes("rt-" + std::to_string(i)); }

TEST(Retransmission, DroppedCommitsRecoveredByRebroadcast) {
  // All COMMIT messages to replica 3 are lost once; replica 3 must still
  // deliver after the others rebroadcast on their retransmission timers.
  auto options = PillarGroupHarness::Options{rt_config()};
  bool lossy = true;
  options.drop = [&lossy](ReplicaId, ReplicaId to, const Message& m) {
    return lossy && to == 3 && std::holds_alternative<Commit>(m);
  };
  PillarGroupHarness h(std::move(options));

  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered(3).size(), 0u) << "replica 3 missed the commits";
  for (ReplicaId r = 0; r < 3; ++r)
    EXPECT_EQ(h.delivered(r).size(), 1u);

  lossy = false;
  h.advance_time(150'000);
  h.tick_all();
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered(3).size(), 1u) << "rebroadcast healed the gap";
}

TEST(Retransmission, DroppedPreprepareRecoveredByFetch) {
  // Replica 2 misses the proposal entirely; it holds deferred votes and
  // must FETCH the pre-prepare from the leader.
  auto options = PillarGroupHarness::Options{rt_config()};
  bool lossy = true;
  options.drop = [&lossy](ReplicaId, ReplicaId to, const Message& m) {
    return lossy && to == 2 && std::holds_alternative<PrePrepare>(m);
  };
  PillarGroupHarness h(std::move(options));

  h.client_request(1001, 7, payload(7), {0, 1, 3});
  h.run_until_quiescent();
  EXPECT_TRUE(h.delivered(2).empty());
  EXPECT_EQ(h.delivered(0).size(), 1u) << "quorum progressed without 2";

  lossy = false;
  h.advance_time(150'000);
  h.tick_all();  // replica 2 sends FETCH; leader answers
  h.run_until_quiescent();
  h.advance_time(150'000);
  h.tick_all();  // replica 2's own votes rebroadcast as needed
  h.run_until_quiescent();

  ASSERT_EQ(h.delivered(2).size(), 1u);
  EXPECT_EQ(h.delivered(2)[0].requests.at(0).key(), request_key(1001, 7));
}

TEST(Retransmission, DroppedCheckpointVotesRecovered) {
  auto options = PillarGroupHarness::Options{rt_config()};
  bool lossy = true;
  options.drop = [&lossy](ReplicaId, ReplicaId, const Message& m) {
    return lossy && std::holds_alternative<CheckpointMsg>(m);
  };
  PillarGroupHarness h(std::move(options));

  for (int i = 1; i <= 12; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();
  for (ReplicaId r = 0; r < 4; ++r)
    EXPECT_TRUE(h.stable_checkpoints(r).empty());

  lossy = false;
  h.advance_time(150'000);
  h.tick_all();
  h.run_until_quiescent();
  for (ReplicaId r = 0; r < 4; ++r)
    EXPECT_EQ(h.stable_checkpoints(r), std::vector<SeqNum>{10})
        << "replica " << r;
}

TEST(Retransmission, FetchFromNonProposerIsIgnored) {
  PillarGroupHarness h({rt_config()});
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();

  // Replica 2 asks replica 1 (a follower) for seq 1: replica 1 is not the
  // proposer and must not answer with someone else's proposal.
  auto before = h.core(1).stats();
  IncomingMessage im;
  im.msg = Fetch{0, 1, 2, {}};
  h.core(1).on_message(std::move(im), h.now());
  auto effects = h.core(1).take_effects();
  EXPECT_TRUE(effects.empty());
  EXPECT_EQ(h.core(1).stats().macs_verified, before.macs_verified)
      << "not even verified: never needed";
}

TEST(Retransmission, QuietWhenNothingIsStalled) {
  PillarGroupHarness h({rt_config()});
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();

  // Everything delivered; ticking must not spray retransmissions.
  h.advance_time(1'000'000);
  h.tick_all();
  EXPECT_EQ(h.in_flight(), 0u);
}

TEST(Retransmission, DisabledWhenIntervalZero) {
  auto cfg = rt_config();
  cfg.retransmit_interval_us = 0;
  auto options = PillarGroupHarness::Options{cfg};
  options.drop = [](ReplicaId, ReplicaId to, const Message& m) {
    return to == 3 && std::holds_alternative<Commit>(m);
  };
  PillarGroupHarness h(std::move(options));
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();
  h.advance_time(1'000'000);
  h.tick_all();
  h.run_until_quiescent();
  EXPECT_TRUE(h.delivered(3).empty()) << "no recovery when disabled";
}

}  // namespace
}  // namespace copbft::test
