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

// ---- retransmission deadlines ---------------------------------------------
//
// A core walks its log for stalled work only once the earliest deadline
// (last activity + retransmit_interval_us) is due. Each test ticks the
// group once while idle, so no deadline is pending, and then checks the
// tick one microsecond before a deadline and the tick at it.

TEST(Retransmission, StalledInstanceResentExactlyAtItsDeadline) {
  // Commits to replica 3 are lost: its instance stalls at its last vote.
  const ProtocolConfig cfg = rt_config();
  auto options = PillarGroupHarness::Options{cfg};
  bool lossy = true;
  options.drop = [&lossy](ReplicaId, ReplicaId to, const Message& m) {
    return lossy && to == 3 && std::holds_alternative<Commit>(m);
  };
  PillarGroupHarness h(std::move(options));
  h.tick_all();
  h.advance_time(1'000);
  const std::uint64_t t0 = h.now();
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();
  ASSERT_TRUE(h.delivered(3).empty());

  h.advance_time(cfg.retransmit_interval_us - 1);
  h.tick_all();
  EXPECT_EQ(h.in_flight(), 0u) << "resent before its deadline";

  h.advance_time(1);
  ASSERT_EQ(h.now(), t0 + cfg.retransmit_interval_us);
  h.tick_all();
  EXPECT_GT(h.in_flight(), 0u) << "not resent at its deadline";
  lossy = false;
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered(3).size(), 1u);
}

TEST(Retransmission, StaggeredStallsResentEachAtItsOwnDeadline) {
  // Two instances stall at replica 3, 50 ms apart. Each resend must come
  // at that instance's own deadline: late means the bound recomputed
  // after the first resend missed the second instance.
  const ProtocolConfig cfg = rt_config();
  const std::uint64_t interval = cfg.retransmit_interval_us;
  const std::uint64_t stagger = 50'000;
  auto options = PillarGroupHarness::Options{cfg};
  std::vector<SeqNum> resent;  // replica 3's prepares, one per broadcast
  options.drop = [&resent](ReplicaId from, ReplicaId to, const Message& m) {
    if (const auto* prepare = std::get_if<Prepare>(&m);
        prepare && from == 3 && to == 0)
      resent.push_back(prepare->seq);
    return to == 3 && std::holds_alternative<Commit>(m);
  };
  PillarGroupHarness h(std::move(options));
  h.tick_all();
  h.advance_time(1'000);
  const std::uint64_t t0 = h.now();
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();
  h.advance_time(stagger);
  h.client_request(1001, 2, payload(2));
  h.run_until_quiescent();
  ASSERT_TRUE(h.delivered(3).empty());

  auto resent_at = [&](std::uint64_t when) {
    resent.clear();
    h.advance_time(when - h.now());
    h.tick_all();
    h.run_until_quiescent();
    return resent;
  };
  using Seqs = std::vector<SeqNum>;
  EXPECT_EQ(resent_at(t0 + interval - 1), Seqs{});
  EXPECT_EQ(resent_at(t0 + interval), Seqs{1});
  EXPECT_EQ(resent_at(t0 + stagger + interval - 1), Seqs{});
  EXPECT_EQ(resent_at(t0 + stagger + interval), Seqs{2});
  EXPECT_EQ(resent_at(t0 + 2 * interval - 1), Seqs{});
  EXPECT_EQ(resent_at(t0 + 2 * interval), Seqs{1});
}

TEST(Retransmission, StalledCheckpointVoteResentExactlyAtItsDeadline) {
  // Every checkpoint vote is lost once. The instances finish 50 ms before
  // the checkpoint starts, so the walk at their deadline resends nothing
  // and must leave the bound at the vote's own deadline.
  const ProtocolConfig cfg = rt_config();
  const std::uint64_t interval = cfg.retransmit_interval_us;
  auto options = PillarGroupHarness::Options{cfg};
  bool lossy = true;
  std::size_t votes_sent = 0;  // one per recipient
  options.drop = [&](ReplicaId, ReplicaId, const Message& m) {
    if (!std::holds_alternative<CheckpointMsg>(m)) return false;
    ++votes_sent;
    return lossy;
  };
  PillarGroupHarness h(std::move(options));
  h.tick_all();
  h.advance_time(1'000);
  const std::uint64_t instances_at = h.now();
  for (int i = 1; i <= 9; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();
  h.advance_time(50'000);
  const std::uint64_t t0 = h.now();
  h.client_request(1001, 10, payload(10));  // seq 10 starts the checkpoint
  h.run_until_quiescent();
  ASSERT_EQ(votes_sent, 4u * 3u);
  for (ReplicaId r = 0; r < 4; ++r)
    ASSERT_TRUE(h.stable_checkpoints(r).empty());

  votes_sent = 0;
  h.advance_time(instances_at + interval - h.now());
  h.tick_all();
  h.advance_time(t0 + interval - 1 - h.now());
  h.tick_all();
  EXPECT_EQ(votes_sent, 0u) << "resent before its deadline";
  EXPECT_EQ(h.in_flight(), 0u);

  h.advance_time(1);
  lossy = false;
  h.tick_all();
  EXPECT_EQ(votes_sent, 4u * 3u) << "each replica resends its vote";
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
