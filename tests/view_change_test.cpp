#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "app/null_service.hpp"
#include "core/execution_stage.hpp"
#include "core/outbound.hpp"
#include "core/outbound_sink.hpp"
#include "core/pillar.hpp"
#include "support/core_harness.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

ProtocolConfig vc_config() {
  ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.max_faulty = 1;
  cfg.checkpoint_interval = 10;
  cfg.window = 40;
  cfg.batching = false;
  cfg.view_change_timeout_us = 1'000'000;
  return cfg;
}

Bytes payload(int i) { return to_bytes("vc-op-" + std::to_string(i)); }

/// Drop filter: silences every message sent *by* the given replica.
auto crash(ReplicaId dead) {
  return [dead](ReplicaId from, ReplicaId, const Message&) {
    return from == dead;
  };
}

TEST(ViewChange, LeaderCrashTriggersNewView) {
  auto options = PillarGroupHarness::Options{vc_config()};
  options.drop = crash(0);  // leader of view 0 is silent
  PillarGroupHarness h(std::move(options));

  // Followers receive a request but the leader never proposes.
  h.client_request(1001, 1, payload(1), {1, 2, 3});
  h.run_until_quiescent();
  for (ReplicaId r = 1; r < 4; ++r) EXPECT_TRUE(h.delivered(r).empty());

  // Time passes; followers suspect the leader and change to view 1.
  h.advance_time(1'500'000);
  h.tick_all();
  h.run_until_quiescent();

  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.core(r).view(), 1u) << "replica " << r;
    EXPECT_FALSE(h.core(r).in_view_change());
  }
  // The new leader (replica 1) re-proposes the pending request.
  h.tick_all();
  h.run_until_quiescent();
  for (ReplicaId r = 1; r < 4; ++r) {
    auto batches = h.delivered_sorted(r);
    ASSERT_EQ(batches.size(), 1u) << "replica " << r;
    EXPECT_EQ(batches[0].requests.at(0).key(), request_key(1001, 1));
    EXPECT_EQ(batches[0].view, 1u);
  }
}

TEST(ViewChange, PreparedRequestSurvivesViewChange) {
  // The instance reaches the prepared state group-wide but no commit ever
  // spreads (embargoed); then the leader crashes. PBFT's view change must
  // re-propose the *same* batch in view 1 and commit it exactly once.
  auto options = PillarGroupHarness::Options{vc_config()};
  int phase = 0;  // 0: drop commits; 1: drop everything from the old leader
  options.drop = [&phase](ReplicaId from, ReplicaId, const Message& m) {
    if (phase == 0) return std::holds_alternative<Commit>(m);
    return from == 0;
  };
  PillarGroupHarness h(std::move(options));

  h.client_request(1001, 7, payload(7));
  h.run_until_quiescent();
  for (ReplicaId r = 0; r < 4; ++r)
    ASSERT_TRUE(h.delivered(r).empty()) << "commits were embargoed";

  phase = 1;
  h.advance_time(1'500'000);
  h.tick_all();
  h.run_until_quiescent();
  h.tick_all();
  h.run_until_quiescent();

  // All live replicas end in view 1 with the request committed exactly
  // once (the prepared certificate traveled in the view-change messages).
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.core(r).view(), 1u);
    std::size_t with_req = 0;
    for (const auto& b : h.delivered_sorted(r))
      for (const auto& req : b.requests)
        if (req.key() == request_key(1001, 7)) ++with_req;
    EXPECT_EQ(with_req, 1u) << "replica " << r;
  }
}

TEST(ViewChange, FaultyCoordinatorEscalatesToNextView) {
  // Replica 0 (leader of view 0) is crashed and replica 1, coordinator of
  // view 1, never sends its NEW-VIEW (faulty coordinator): the group must
  // escalate and complete the change at view 2, coordinated by replica 2.
  auto options = PillarGroupHarness::Options{vc_config()};
  options.drop = [](ReplicaId from, ReplicaId, const Message& m) {
    if (from == 0) return true;
    return from == 1 && std::holds_alternative<NewView>(m);
  };
  PillarGroupHarness h(std::move(options));

  h.client_request(1001, 1, payload(1), {1, 2, 3});
  h.run_until_quiescent();

  for (int round = 0; round < 6; ++round) {
    h.advance_time(2'500'000);
    h.tick_all();
    h.run_until_quiescent();
    if (h.core(2).view() >= 2 && !h.core(2).in_view_change()) break;
  }

  EXPECT_EQ(h.core(2).view(), 2u);
  EXPECT_FALSE(h.core(2).in_view_change());
  EXPECT_EQ(h.core(2).view(), h.core(3).view());

  // Liveness restored: the request commits in view 2 (replicas 1..3 are
  // enough for the 2f+1 quorum).
  h.tick_all();
  h.run_until_quiescent();
  for (ReplicaId r = 2; r < 4; ++r) {
    std::size_t total = 0;
    for (const auto& b : h.delivered(r)) total += b.requests.size();
    EXPECT_EQ(total, 1u) << "replica " << r;
  }
}

TEST(ViewChange, JoinOnWeakQuorum) {
  // A replica that saw no timeout joins a view change once f+1 = 2 others
  // demand it.
  auto cfg = vc_config();
  PillarGroupHarness h({cfg});

  ViewChange vc1;
  vc1.new_view = 1;
  vc1.replica = 1;
  ViewChange vc2 = vc1;
  vc2.replica = 2;

  IncomingMessage im1;
  im1.msg = vc1;
  h.core(3).on_message(std::move(im1), 0);
  EXPECT_FALSE(h.core(3).in_view_change()) << "one vote is not enough";

  IncomingMessage im2;
  im2.msg = vc2;
  h.core(3).on_message(std::move(im2), 0);
  EXPECT_TRUE(h.core(3).in_view_change()) << "f+1 votes force the join";
  EXPECT_GT(h.core(3).stats().view_changes_started, 0u);
}

TEST(ViewChange, StaleViewChangeIgnored) {
  PillarGroupHarness h({vc_config()});
  ViewChange stale;
  stale.new_view = 0;  // not higher than the current view
  stale.replica = 1;
  auto before = h.core(2).stats();
  IncomingMessage im;
  im.msg = stale;
  h.core(2).on_message(std::move(im), 0);
  EXPECT_FALSE(h.core(2).in_view_change());
  EXPECT_EQ(h.core(2).stats().macs_verified, before.macs_verified);
}

TEST(ViewChange, NormalOperationResumesInNewView) {
  auto options = PillarGroupHarness::Options{vc_config()};
  bool dead = false;
  options.drop = [&dead](ReplicaId from, ReplicaId, const Message&) {
    return dead && from == 0;
  };
  PillarGroupHarness h(std::move(options));

  // Commit a few instances in view 0 first.
  for (int i = 1; i <= 5; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered_sorted(1).size(), 5u);

  // Kill the leader, force a view change, then resume traffic.
  dead = true;
  h.client_request(1001, 6, payload(6), {1, 2, 3});
  h.run_until_quiescent();
  h.advance_time(1'500'000);
  h.tick_all();
  h.run_until_quiescent();

  for (int i = 7; i <= 10; ++i) {
    h.client_request(1001, i, payload(i), {1, 2, 3});
    h.run_until_quiescent();
  }

  // Replicas 1..3 agree on a gap-free order containing all ten requests.
  auto reference = h.delivered_sorted(1);
  std::size_t total = 0;
  for (const auto& b : reference) total += b.requests.size();
  EXPECT_EQ(total, 10u);
  for (ReplicaId r = 2; r < 4; ++r) {
    auto got = h.delivered_sorted(r);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].seq, reference[i].seq);
      ASSERT_EQ(got[i].requests.size(), reference[i].requests.size());
      for (std::size_t j = 0; j < got[i].requests.size(); ++j)
        EXPECT_EQ(got[i].requests[j].key(), reference[i].requests[j].key());
    }
  }
}

TEST(ViewChange, PillarWhoseFirstFrameIsAProposalStartsNoViewChange) {
  // The proposal is queued before the follower pillar's thread starts, so
  // it is the first thing the pillar handles: its core must not read the
  // time since boot as a stalled instance.
  core::ReplicaRuntimeConfig config;
  config.num_pillars = 1;
  config.protocol.num_pillars = 1;
  config.protocol.batching = false;
  auto crypto = crypto::make_real_crypto(5);

  // The view-0 leader (replica 0) proposes one client-signed request.
  Request req{kClientIdBase, 1, 0, to_bytes("op"), {}};
  std::vector<crypto::KeyNodeId> replicas;
  for (ReplicaId r = 0; r < config.protocol.num_replicas; ++r)
    replicas.push_back(replica_node(r));
  req.auth = crypto::Authenticator::build(
      *crypto, client_node(req.client), replicas,
      ByteSpan{request_authenticated_bytes(req)});
  CryptoVerifier leader_verifier(*crypto, replica_node(0));
  PbftCore leader(config.protocol, 0, SeqSlice{0, 1}, leader_verifier,
                  *crypto);
  leader.on_request(req, /*now_us=*/1, /*verified=*/true);
  Bytes proposal;
  for (Effect& effect : leader.take_effects())
    if (auto* bc = std::get_if<Broadcast>(&effect))
      if (std::holds_alternative<PrePrepare>(bc->msg))
        proposal = core::seal_message(
            bc->msg, *crypto, replica_node(0),
            core::other_replicas(config.protocol.num_replicas, 0));
  ASSERT_FALSE(proposal.empty()) << "leader did not propose";

  FakeTransport transport;
  app::NullService service;
  core::ExecutionStage exec(/*self=*/1, config, service, *crypto, transport);
  core::InPlaceOutbound outbound(/*self=*/1, config.protocol.num_replicas,
                                 *crypto, transport);
  core::Pillar pillar(/*self=*/1, /*index=*/0, config, *crypto, exec,
                      outbound, &service, nullptr);
  ASSERT_TRUE(pillar.deliver(
      transport::ReceivedFrame{replica_node(0), 0, std::move(proposal)}));
  pillar.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pillar.stop();

  const CoreStats stats = pillar.core_stats();
  EXPECT_EQ(stats.view_changes_started, 0u);
  EXPECT_GT(transport.sent_count(), 0u) << "the proposal was not accepted";
}

}  // namespace
}  // namespace copbft::test
