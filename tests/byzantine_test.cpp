// Byzantine-behavior tests: actively malicious inputs must never cause
// disagreement, double delivery, or unverified acceptance.
#include <gtest/gtest.h>

#include "support/core_harness.hpp"

namespace copbft::test {
namespace {

ProtocolConfig byz_config() {
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

Request make_request(ClientId client, RequestId id, const char* body) {
  Request req;
  req.client = client;
  req.id = id;
  req.payload = to_bytes(body);
  return req;
}

/// An equivocating leader sends different proposals for the same sequence
/// number to different followers: at most one value may commit, and the
/// committed value must be identical wherever it commits.
TEST(Byzantine, EquivocatingLeaderCannotCauseDisagreement) {
  PillarGroupHarness h({byz_config()});
  auto crypto = crypto::make_null_crypto();

  PrePrepare good;
  good.view = 0;
  good.seq = 1;
  good.requests = {make_request(1001, 1, "good")};
  good.digest = batch_digest(*crypto, good.requests);

  PrePrepare evil = good;
  evil.requests = {make_request(1001, 1, "evil")};
  evil.digest = batch_digest(*crypto, evil.requests);

  // Leader 0 equivocates: replica 1 gets "good", replicas 2/3 get "evil".
  IncomingMessage im1;
  im1.msg = good;
  h.core(1).on_message(std::move(im1), 0);
  for (ReplicaId r : {2u, 3u}) {
    IncomingMessage im;
    im.msg = evil;
    h.core(r).on_message(std::move(im), 0);
  }
  h.run_until_quiescent();

  // "evil" has two followers prepared; "good" only one. Neither can reach
  // a full commit quorum without the (silent) leader, and no two replicas
  // may disagree on a committed value.
  std::map<SeqNum, std::string> committed;
  for (ReplicaId r = 1; r < 4; ++r) {
    for (const auto& batch : h.delivered(r)) {
      std::string value = to_string(batch.requests.at(0).payload);
      auto [it, inserted] = committed.try_emplace(batch.seq, value);
      if (!inserted) {
        EXPECT_EQ(it->second, value) << "disagreement!";
      }
    }
  }
}

/// Votes with a digest that does not match the accepted proposal must not
/// count toward quorums.
TEST(Byzantine, MismatchedVoteDigestRejected) {
  PillarGroupHarness h({byz_config()});
  h.client_request(1001, 1, to_bytes("x"), {0});
  // Deliver exactly one pool message: the leader's PRE-PREPARE to
  // replica 1 (the pool is FIFO).
  ASSERT_TRUE(h.step());

  auto& follower = h.core(1);
  ASSERT_EQ(follower.open_instances(), 1u);

  // Two forged prepares with a wrong digest: would be a prepare quorum if
  // counted.
  for (ReplicaId from : {2u, 3u}) {
    Prepare forged;
    forged.view = 0;
    forged.seq = 1;
    forged.digest.bytes.fill(0xEE);
    forged.replica = from;
    IncomingMessage im;
    im.msg = forged;
    follower.on_message(std::move(im), 0);
  }
  auto effects = follower.take_effects();
  for (const auto& effect : effects) {
    if (const auto* bc = std::get_if<Broadcast>(&effect)) {
      EXPECT_FALSE(std::holds_alternative<Commit>(bc->msg))
          << "prepared with forged digests!";
    }
  }
  EXPECT_GE(follower.stats().invalid_dropped, 2u);
}

/// Vote stuffing: a single replica repeating its vote many times counts
/// once (quorums are sets of distinct replicas).
TEST(Byzantine, DuplicateVotesCountOnce) {
  PillarGroupHarness h({byz_config()});
  h.client_request(1001, 1, to_bytes("x"), {0});
  ASSERT_TRUE(h.step());  // PRE-PREPARE reaches replica 1 only
  auto& follower = h.core(1);
  // Recover the accepted digest via the follower's own prepare broadcast.
  // (The harness consumed effects already; reconstruct from the core's
  // state: replay a correct prepare from replica 2, many times.)
  auto crypto = crypto::make_null_crypto();
  Request req = make_request(1001, 1, "x");
  crypto::Digest digest = batch_digest(*crypto, {req});

  for (int i = 0; i < 10; ++i) {
    Prepare vote{0, 1, digest, 2, {}};
    IncomingMessage im;
    im.msg = vote;
    follower.on_message(std::move(im), 0);
  }
  // One counted, nine skipped without verification.
  EXPECT_GE(follower.stats().verifications_skipped, 9u);
  // Not committed: prepares are {self, replica2} = 2f, commit quorum needs
  // commits which never came.
  EXPECT_TRUE(h.delivered(1).empty());
}

/// Messages claiming impossible replica ids are dropped unverified.
TEST(Byzantine, OutOfRangeReplicaIdsDropped) {
  PillarGroupHarness h({byz_config()});
  auto before = h.core(0).stats();
  Prepare vote{0, 1, {}, /*replica=*/99, {}};
  IncomingMessage im;
  im.msg = vote;
  h.core(0).on_message(std::move(im), 0);
  CheckpointMsg cp{10, {}, /*replica=*/99, {}};
  IncomingMessage im2;
  im2.msg = cp;
  h.core(0).on_message(std::move(im2), 0);
  EXPECT_EQ(h.core(0).stats().macs_verified, before.macs_verified);
}

/// A forged checkpoint digest cannot become stable: stability needs 2f+1
/// *matching* digests.
TEST(Byzantine, CheckpointNeedsMatchingQuorum) {
  PillarGroupHarness h({byz_config()});
  for (int i = 1; i <= 10; ++i)
    h.client_request(1001, i, to_bytes("c" + std::to_string(i)));
  // Deliver everything but intercept checkpoint stability: harness runs
  // the full protocol, so instead test the vote tally directly on a fresh
  // core via forged votes.
  h.run_until_quiescent();

  auto& core = h.core(0);
  SeqNum target = 20;  // no local checkpoint started for this seq
  crypto::Digest lie;
  lie.bytes.fill(0xBA);
  for (ReplicaId from : {1u, 2u}) {
    IncomingMessage im;
    im.msg = CheckpointMsg{target, lie, from, {}};
    core.on_message(std::move(im), h.now());
  }
  // Only 2 matching votes (< 2f+1): not stable.
  EXPECT_LT(core.stable_seq(), target);

  IncomingMessage im;
  im.msg = CheckpointMsg{target, lie, 3, {}};
  core.on_message(std::move(im), h.now());
  // Now 3 forged votes claim stability — the core accepts the quorum
  // (any 2f+1 matching set includes >= f+1 correct replicas in a real
  // deployment, so three matching votes can only exist if the state is
  // genuine; with NullCrypto the test just documents the rule).
  EXPECT_EQ(core.stable_seq(), target);
}

// ---- built-in adversary shim (scenario engine) --------------------------
//
// The AdversaryConfig hooks in PbftCore drive the Byzantine scenario
// campaigns; these tests pin their mechanics at the core level.

/// Equivocation splits the peers into disjoint halves with conflicting
/// pre-prepares. With the commit quorum unreachable for either variant,
/// nothing may deliver — and the counter must record the attack.
TEST(Byzantine, ConfiguredEquivocationSplitsPeersAndCannotCommit) {
  ProtocolConfig cfg = byz_config();
  cfg.adversary.replica = 0;
  cfg.adversary.equivocate = true;
  PillarGroupHarness h({cfg});

  h.client_request(1001, 1, to_bytes("x"), {0});
  h.run_until_quiescent();

  EXPECT_EQ(h.core(0).stats().adversary_equivocations, 1u);
  // Peer 1 prepared the real batch, peers 2/3 the no-op decoy: neither
  // side reaches 2f+1 commits, so no replica may deliver anything.
  for (ReplicaId r = 0; r < 4; ++r)
    EXPECT_TRUE(h.delivered(r).empty()) << "replica " << r;
}

/// Selective omission towards a minority: the withheld votes must be
/// counted, and the remaining quorums must still commit everywhere.
TEST(Byzantine, ConfiguredOmissionPreservesLiveness) {
  ProtocolConfig cfg = byz_config();
  cfg.adversary.replica = 1;
  cfg.adversary.omit_votes_to = {2, 3};
  PillarGroupHarness h({cfg});

  h.client_request(1001, 1, to_bytes("x"));
  h.run_until_quiescent();

  // One prepare + one commit suppressed towards each of the two targets.
  EXPECT_GE(h.core(1).stats().adversary_omissions, 4u);
  // 2f prepares / 2f+1 commits stay reachable without replica 1's votes.
  for (ReplicaId r : {0u, 2u, 3u}) {
    ASSERT_EQ(h.delivered(r).size(), 1u) << "replica " << r;
    EXPECT_EQ(to_string(h.delivered(r)[0].requests.at(0).payload), "x");
  }
}

/// A time-bounded adversary is honest outside its window.
TEST(Byzantine, AdversaryWindowExpires) {
  ProtocolConfig cfg = byz_config();
  cfg.adversary.replica = 0;
  cfg.adversary.equivocate = true;
  cfg.adversary.until_us = 50;
  PillarGroupHarness h({cfg});

  h.advance_time(100);  // past the window
  h.client_request(1001, 1, to_bytes("x"), {0});
  h.run_until_quiescent();

  EXPECT_EQ(h.core(0).stats().adversary_equivocations, 0u);
  for (ReplicaId r = 0; r < 4; ++r)
    ASSERT_EQ(h.delivered(r).size(), 1u) << "replica " << r;
}

/// Requests with broken client MACs never enter the pipeline.
TEST(Byzantine, ForgedClientRequestsRejected) {
  // Use a real-crypto core for this one.
  auto crypto = crypto::make_real_crypto(5);
  ProtocolConfig cfg = byz_config();
  CryptoVerifier verifier(*crypto, replica_node(0));
  PbftCore core(cfg, 0, SeqSlice{0, 1}, verifier, *crypto);

  Request req = make_request(1001, 1, "forged");
  // Authenticator built by the WRONG client identity.
  Bytes body = request_authenticated_bytes(req);
  req.auth = crypto::Authenticator::build(*crypto, client_node(1002),
                                          {replica_node(0)}, body);
  core.on_request(req, 0, /*verified=*/false);
  EXPECT_EQ(core.pending_requests(), 0u);
  EXPECT_EQ(core.stats().invalid_dropped, 1u);

  // The genuine client's authenticator is accepted.
  req.auth = crypto::Authenticator::build(*crypto, client_node(1001),
                                          {replica_node(0)}, body);
  core.on_request(req, 0, /*verified=*/false);
  EXPECT_EQ(core.stats().proposals, 1u) << "leader proposed it";
}

}  // namespace
}  // namespace copbft::test
