// Vote bundles: a pillar's round of votes leaves as one frame with one
// authenticator, and the receiver checks that authenticator once, the
// first time the core needs one of the bundle's votes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "app/null_service.hpp"
#include "common/metrics.hpp"
#include "core/outbound.hpp"
#include "core/outbound_sink.hpp"
#include "core/smart_replica.hpp"
#include "protocol/pbft_core.hpp"
#include "protocol/verifier.hpp"
#include "protocol/wire.hpp"
#include "support/cluster_fixture.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

/// Counts every MAC computed (a verify_mac computes one too).
class CountingCrypto final : public crypto::CryptoProvider {
 public:
  CountingCrypto() : inner_(crypto::make_real_crypto(21)) {}

  crypto::Digest digest(ByteSpan data) const override {
    return inner_->digest(data);
  }
  crypto::Mac mac(crypto::KeyNodeId sender, crypto::KeyNodeId receiver,
                  ByteSpan data) const override {
    macs_.fetch_add(1);
    return inner_->mac(sender, receiver, data);
  }
  std::uint64_t macs() const { return macs_.load(); }

 private:
  std::unique_ptr<crypto::CryptoProvider> inner_;
  mutable std::atomic<std::uint64_t> macs_{0};
};

crypto::Digest digest_of(Byte b) {
  crypto::Digest d;
  d.bytes.fill(b);
  return d;
}

/// Prepare, Commit and Checkpoint from `replica`.
std::vector<Message> three_votes(ReplicaId replica) {
  return {Prepare{0, 1, digest_of(1), replica, {}},
          Commit{0, 1, digest_of(1), replica, {}},
          CheckpointMsg{10, digest_of(2), replica, {}}};
}

// ---- codec ------------------------------------------------------------

TEST(VoteBundle, RoundTripsAndVerifiesAtEveryRecipient) {
  auto crypto = crypto::make_real_crypto(21);
  const std::vector<Message> votes = three_votes(1);
  const Bytes frame =
      seal_vote_bundle(votes, *crypto, 1, other_replicas(4, 1));
  EXPECT_EQ(frame.size(), vote_bundle_size(votes, 3));
  EXPECT_FALSE(decode_message(frame)) << "bundles are not messages";

  for (ReplicaId r : {0u, 2u, 3u}) {
    auto bundled = parse_vote_bundle(frame, r, 4);
    ASSERT_TRUE(bundled) << "replica " << r;
    ASSERT_EQ(bundled->size(), votes.size());
    const std::shared_ptr<VoteBundle> bundle = bundled->front().bundle;
    ASSERT_TRUE(bundle);
    for (std::size_t i = 0; i < votes.size(); ++i) {
      const IncomingMessage& im = (*bundled)[i];
      EXPECT_EQ(encode_message(im.msg), encode_message(votes[i]));
      EXPECT_EQ(im.bundle, bundle) << "every vote shares the bundle";
      EXPECT_TRUE(im.raw.empty());
      EXPECT_FALSE(im.pre_verified);
    }
    EXPECT_EQ(bundle->sender, 1u);
    CryptoVerifier verifier(*crypto, replica_node(r));
    EXPECT_TRUE(verifier.check_bundle(*bundle)) << "replica " << r;
  }
}

TEST(VoteBundle, TamperedByteFailsVerification) {
  auto crypto = crypto::make_real_crypto(21);
  Bytes frame = seal_vote_bundle(three_votes(1), *crypto, 1,
                                 other_replicas(4, 1));
  // Inside the first vote's digest: the frame still parses.
  frame[1 + 4 + 4 + 4 + 1 + 8 + 8] ^= 0x01;
  auto bundled = parse_vote_bundle(std::move(frame), 0, 4);
  ASSERT_TRUE(bundled);
  CryptoVerifier verifier(*crypto, replica_node(0));
  EXPECT_FALSE(verifier.verify((*bundled)[1], replica_node(1)));
}

TEST(VoteBundle, VerifierRefusesAClaimedSenderOtherThanTheBundles) {
  auto crypto = crypto::make_real_crypto(21);
  auto bundled = parse_vote_bundle(
      seal_vote_bundle(three_votes(1), *crypto, 1, other_replicas(4, 1)), 0,
      4);
  ASSERT_TRUE(bundled);
  CryptoVerifier verifier(*crypto, replica_node(0));
  EXPECT_FALSE(verifier.verify(bundled->front(), replica_node(2)));
  EXPECT_TRUE(verifier.verify(bundled->front(), replica_node(1)));
}

// ---- rejections -------------------------------------------------------

/// A bundle's authenticated part from raw pieces, then `auth_entries` fake
/// authenticator entries.
Bytes raw_bundle(std::uint32_t sender, std::uint32_t count,
                 const std::vector<Bytes>& votes,
                 std::uint16_t auth_entries = 3) {
  Bytes out;
  WireWriter w(out);
  w.u8(kVoteBundleTag);
  w.u32(sender);
  w.u32(count);
  for (const Bytes& vote : votes) {
    w.u32(static_cast<std::uint32_t>(vote.size()));
    w.raw(vote);
  }
  w.u16(auth_entries);
  for (std::uint16_t i = 0; i < auth_entries; ++i) {
    w.u32(i);
    w.mac(crypto::Mac{});
  }
  return out;
}

Bytes vote_bytes(const Message& msg) { return encode_message(msg); }

TEST(VoteBundle, ParserAcceptsTheRawForm) {
  // The helper below builds what the sender builds; the rejections differ
  // from this by one field each.
  const Bytes frame = raw_bundle(
      1, 2, {vote_bytes(Prepare{0, 1, {}, 1, {}}),
             vote_bytes(Commit{0, 1, {}, 1, {}})});
  EXPECT_TRUE(parse_vote_bundle(frame, 0, 4));
}

TEST(VoteBundle, ParserRejectsEachMalformation) {
  const Bytes prepare = vote_bytes(Prepare{0, 1, {}, 1, {}});
  const Bytes commit = vote_bytes(Commit{0, 1, {}, 1, {}});
  struct Case {
    const char* what;
    Bytes frame;
  };
  Bytes overrun = raw_bundle(1, 2, {prepare, commit});
  // The second vote's length claims more bytes than the frame holds.
  const std::size_t second_len = 1 + 4 + 4 + 4 + prepare.size();
  overrun[second_len] = static_cast<Byte>(overrun[second_len] + 200);
  Bytes trailing = raw_bundle(1, 2, {prepare, commit});
  trailing.push_back(0);
  Message foreign = Prepare{0, 1, {}, 1, {}};
  authenticator_of(foreign).entries.push_back({0, crypto::Mac{}});

  const std::vector<Case> cases = {
      {"sender is this replica", raw_bundle(0, 2, {prepare, commit})},
      {"sender out of range", raw_bundle(4, 2, {prepare, commit})},
      {"count of 0", raw_bundle(1, 0, {})},
      {"more votes than the bytes hold", raw_bundle(1, 1000, {prepare})},
      {"count above the votes present",
       raw_bundle(1, 3, {prepare, commit})},
      {"length overruns the frame", overrun},
      {"trailing bytes", trailing},
      {"not a vote",
       raw_bundle(1, 2, {prepare, vote_bytes(Fetch{0, 1, 1, {}})})},
      {"names another replica",
       raw_bundle(1, 2, {prepare, vote_bytes(Commit{0, 1, {}, 2, {}})})},
      {"vote carries an authenticator",
       raw_bundle(1, 2, {vote_bytes(foreign), commit})},
      {"vote is malformed", raw_bundle(1, 2, {prepare, Bytes(60, Byte{3})})},
      {"wrong tag", [&] {
         Bytes b = raw_bundle(1, 2, {prepare, commit});
         b[0] = static_cast<Byte>(MsgType::kPrepare);
         return b;
       }()},
  };
  for (const Case& c : cases)
    EXPECT_FALSE(parse_vote_bundle(c.frame, 0, 4)) << c.what;
}

// ---- verified once, when first needed -----------------------------------

struct CoreUnderTest {
  CoreUnderTest()
      : bundles_checked(metrics::MetricsRegistry::global().counter(
            "bundle_test.bundles_checked")),
        checked_before(bundles_checked.value()),
        verifier(crypto, replica_node(0), &bundles_checked),
        core(config(), 0, SeqSlice{0, 1}, verifier, crypto) {}

  static ProtocolConfig config() {
    ProtocolConfig cfg;
    cfg.validate();
    return cfg;
  }

  std::uint64_t checks() const {
    return bundles_checked.value() - checked_before;
  }

  /// Seals `votes` from replica 1 to every peer (with the same keys, on a
  /// provider that counts nothing) and hands the bundle's votes to the
  /// core as a pillar does.
  void receive(const std::vector<Message>& votes) {
    auto bundled = parse_vote_bundle(
        seal_vote_bundle(votes, *sealer, 1, other_replicas(4, 1)), 0, 4);
    ASSERT_TRUE(bundled);
    for (IncomingMessage& im : *bundled) core.on_message(std::move(im), 1);
  }

  CountingCrypto crypto;
  std::unique_ptr<crypto::CryptoProvider> sealer =
      crypto::make_real_crypto(21);
  metrics::Counter& bundles_checked;
  const std::uint64_t checked_before;
  CryptoVerifier verifier;
  PbftCore core;
};

TEST(VoteBundle, AuthenticatorComputedAtMostOnce) {
  CoreUnderTest t;
  // Replica 0 leads view 0: its proposal gives seq 1 a digest.
  t.core.on_request(Request{1001, 1, 0, to_bytes("op"), {}}, 1,
                    /*verified=*/true);
  crypto::Digest digest;
  for (Effect& e : t.core.take_effects())
    if (auto* bc = std::get_if<Broadcast>(&e))
      if (auto* pp = std::get_if<PrePrepare>(&bc->msg)) digest = pp->digest;
  const std::uint64_t macs_before = t.crypto.macs();

  t.receive({Prepare{0, 1, digest, 1, {}}, Commit{0, 1, digest, 1, {}}});
  EXPECT_EQ(t.core.stats().macs_verified, 2u)
      << "the core asked for both votes";
  EXPECT_EQ(t.crypto.macs() - macs_before, 1u) << "one MAC computed";
  EXPECT_EQ(t.checks(), 1u);
}

TEST(VoteBundle, BundleOfUnneededVotesIsNeverVerified) {
  CoreUnderTest t;
  // View 3 is not the core's view: no vote is needed.
  t.receive({Prepare{3, 1, digest_of(1), 1, {}},
             Commit{3, 1, digest_of(1), 1, {}},
             Prepare{3, 2, digest_of(1), 1, {}}});
  EXPECT_EQ(t.core.stats().verifications_skipped, 3u);
  EXPECT_EQ(t.core.stats().macs_verified, 0u);
  EXPECT_EQ(t.crypto.macs(), 0u);
  EXPECT_EQ(t.checks(), 0u);
}

// SMaRt's verification pool checks a bundle eagerly, once for all its
// votes, and counts the check on the logic pillar, where COP and TOP
// count theirs.
TEST(VoteBundle, SmartPoolChecksABundleOnceAndCountsIt) {
  auto crypto = crypto::make_real_crypto(21);
  FakeTransport transport;
  ReplicaRuntimeConfig config;
  config.protocol.max_active_proposals = 1;
  metrics::Counter& checked = pillar_counter(0, 0, "bundles_checked");
  const std::uint64_t checked_before = checked.value();
  SmartReplica replica(0, config, std::make_unique<app::NullService>(),
                       *crypto, transport);
  replica.start();
  auto sink = transport.sink(0);
  ASSERT_TRUE(sink);
  ASSERT_TRUE(sink->deliver(transport::ReceivedFrame{
      replica_node(1), 0,
      seal_vote_bundle(three_votes(1), *crypto, 1, other_replicas(4, 1))}));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (replica.pool_verifications() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  replica.stop();  // joins the pool: its check is done
  EXPECT_EQ(replica.pool_verifications(), 1u) << "one check per bundle";
  EXPECT_EQ(checked.value() - checked_before, 1u);
}

// ---- the sender's round ---------------------------------------------------

struct RoundUnderTest {
  RoundUnderTest()
      : crypto(crypto::make_real_crypto(21)),
        sink(/*self=*/0, 4, *crypto, transport),
        sent(metrics::MetricsRegistry::global().counter(
            "bundle_test.votes_sent")),
        bundles(metrics::MetricsRegistry::global().counter(
            "bundle_test.bundles_sent")),
        votes(metrics::MetricsRegistry::global().counter(
            "bundle_test.votes_bundled")),
        sent_before(sent.value()),
        bundles_before(bundles.value()),
        votes_before(votes.value()),
        round(sink, /*lane=*/1, sent, bundles, votes) {}

  std::unique_ptr<crypto::CryptoProvider> crypto;
  FakeTransport transport;
  InPlaceOutbound sink;
  metrics::Counter& sent;
  metrics::Counter& bundles;
  metrics::Counter& votes;
  const std::uint64_t sent_before;
  const std::uint64_t bundles_before;
  const std::uint64_t votes_before;
  RoundOutbox round;
};

TEST(RoundOutbox, VoteSendToVotePutsThreeFramesOnTheWireInOrder) {
  RoundUnderTest t;
  t.round.broadcast(Prepare{0, 1, digest_of(1), 0, {}});
  t.round.send_to(2, Fetch{0, 7, 0, {}});
  t.round.broadcast(Commit{0, 1, digest_of(1), 0, {}});
  EXPECT_EQ(t.transport.sent_count(), 3u + 1u)
      << "the send flushed the vote before it; the last vote waits";
  t.round.flush();

  std::vector<MsgType> to_peer_2;
  std::size_t frames = 0;
  for (const auto& s : t.transport.take_sent()) {
    EXPECT_EQ(s.lane, 1u);
    ++frames;
    auto decoded = decode_message(s.frame);
    ASSERT_TRUE(decoded) << "one vote per round leaves as its own frame";
    if (s.to == 2) to_peer_2.push_back(type_of(decoded->msg));
  }
  EXPECT_EQ(frames, 3u + 1u + 3u);
  EXPECT_EQ(to_peer_2, (std::vector<MsgType>{MsgType::kPrepare,
                                             MsgType::kFetch,
                                             MsgType::kCommit}));
  EXPECT_EQ(t.sent.value() - t.sent_before, 2u);
  EXPECT_EQ(t.bundles.value(), t.bundles_before);
}

TEST(RoundOutbox, OneVoteRoundSendsTodaysFrame) {
  RoundUnderTest t;
  Message vote = Commit{2, 9, digest_of(5), 0, {}};
  Message copy = vote;
  const Bytes expected =
      seal_message(copy, *t.crypto, replica_node(0), other_replicas(4, 0));
  t.round.broadcast(std::move(vote));
  t.round.flush();
  auto sent = t.transport.take_sent();
  ASSERT_EQ(sent.size(), 3u);
  for (const auto& s : sent) EXPECT_EQ(s.frame, expected);
}

TEST(RoundOutbox, VotesOfOneRoundLeaveAsOneBundlePerPeer) {
  RoundUnderTest t;
  for (Message& vote : three_votes(0)) t.round.broadcast(std::move(vote));
  EXPECT_EQ(t.transport.sent_count(), 0u) << "votes wait for the round's end";
  t.round.flush();
  auto sent = t.transport.take_sent();
  ASSERT_EQ(sent.size(), 3u);
  for (const auto& s : sent) {
    auto bundled = parse_vote_bundle(s.frame, s.to, 4);
    ASSERT_TRUE(bundled);
    EXPECT_EQ(bundled->size(), 3u);
    CryptoVerifier verifier(*t.crypto, s.to);
    EXPECT_TRUE(verifier.check_bundle(*bundled->front().bundle));
  }
  EXPECT_EQ(t.sent.value() - t.sent_before, 3u);
  EXPECT_EQ(t.bundles.value() - t.bundles_before, 1u);
  EXPECT_EQ(t.votes.value() - t.votes_before, 3u);
}

TEST(RoundOutbox, NonVoteBroadcastFlushesTheVotesBeforeIt) {
  RoundUnderTest t;
  t.round.broadcast(Prepare{0, 1, digest_of(1), 0, {}});
  t.round.broadcast(Commit{0, 1, digest_of(1), 0, {}});
  t.round.broadcast(ViewChange{1, 0, {}, 0, {}, {}});
  t.round.flush();
  auto sent = t.transport.take_sent();
  ASSERT_EQ(sent.size(), 6u);
  std::vector<bool> bundles_to_peer_1;
  for (const auto& s : sent)
    if (s.to == 1) bundles_to_peer_1.push_back(s.frame[0] == kVoteBundleTag);
  EXPECT_EQ(bundles_to_peer_1, (std::vector<bool>{true, false}));
  EXPECT_EQ(t.sent.value() - t.sent_before, 2u) << "a ViewChange is no vote";
}

// ---- in a running cluster -------------------------------------------------

std::uint64_t pillar_metric_sum(const char* name) {
  std::uint64_t sum = 0;
  for (ReplicaId r = 0; r < 4; ++r)
    for (std::uint32_t p = 0; p < 2; ++p)
      sum += metrics::MetricsRegistry::global()
                 .counter("replica" + std::to_string(r) + ".pillar" +
                          std::to_string(p) + "." + name)
                 .value();
  return sum;
}

TEST(VoteBundleCluster, CopPillarsBundleAndCheckEachBundleOnce) {
  const std::uint64_t sent_before = pillar_metric_sum("bundles_sent");
  const std::uint64_t checked_before = pillar_metric_sum("bundles_checked");
  ClusterOptions options;
  options.arch = Arch::kCop;
  options.num_pillars = 2;
  Cluster cluster(std::move(options));
  cluster.start();
  auto& client = cluster.add_client(0, /*window=*/16);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(client.invoke_async(to_bytes("b"), 0,
                                    [&done](Bytes, std::uint64_t) { ++done; }));
  client.drain();
  EXPECT_EQ(done.load(), 200);
  cluster.stop();
  EXPECT_GT(pillar_metric_sum("bundles_sent"), sent_before);
  EXPECT_GT(pillar_metric_sum("bundles_checked"), checked_before);
  const auto core = cluster.replica(1).stats().core;
  EXPECT_EQ(core.pre_verified, 0u);
  EXPECT_GT(core.verifications_skipped, 0u);
}

}  // namespace
}  // namespace copbft::test
