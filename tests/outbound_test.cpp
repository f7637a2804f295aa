#include <gtest/gtest.h>

#include "core/outbound.hpp"
#include "core/outbound_sink.hpp"
#include "protocol/verifier.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

TEST(Outbound, OtherReplicasExcludesSelf) {
  auto peers = other_replicas(4, 2);
  EXPECT_EQ(peers, (std::vector<crypto::KeyNodeId>{0, 1, 3}));
}

TEST(Outbound, SealedMessageVerifiesAtEveryRecipient) {
  auto crypto = crypto::make_real_crypto(21);
  Message msg = Prepare{1, 5, {}, /*replica=*/0, {}};
  Bytes frame = seal_message(msg, *crypto, replica_node(0),
                             other_replicas(4, 0));

  auto decoded = decode_message(frame);
  ASSERT_TRUE(decoded);
  const auto& prepare = std::get<Prepare>(decoded->msg);
  EXPECT_EQ(prepare.auth.entries.size(), 3u);
  for (ReplicaId r = 1; r < 4; ++r) {
    IncomingMessage im;
    im.msg = decoded->msg;
    im.raw = frame;
    im.body_size = decoded->body_size;
    CryptoVerifier verifier(*crypto, replica_node(r));
    EXPECT_TRUE(verifier.verify(im, replica_node(0))) << "replica " << r;
    EXPECT_FALSE(verifier.verify(im, replica_node(2)))
        << "wrong claimed sender";
  }
}

TEST(Outbound, TamperedFrameFailsVerification) {
  auto crypto = crypto::make_real_crypto(21);
  Message msg = Commit{1, 5, {}, 0, {}};
  Bytes frame = seal_message(msg, *crypto, replica_node(0), {replica_node(1)});
  frame[3] ^= 0x01;  // flip a body bit
  auto decoded = decode_message(frame);
  ASSERT_TRUE(decoded);
  IncomingMessage im;
  im.msg = decoded->msg;
  im.raw = std::move(frame);
  im.body_size = decoded->body_size;
  CryptoVerifier verifier(*crypto, replica_node(1));
  EXPECT_FALSE(verifier.verify(im, replica_node(0)));
}

TEST(Outbound, VerifierWorksWithoutRawFrame) {
  // Sim/tests hand parsed messages without wire bytes; the verifier
  // re-encodes the authenticated part.
  auto crypto = crypto::make_real_crypto(21);
  Message msg = Prepare{2, 9, {}, 3, {}};
  seal_message(msg, *crypto, replica_node(3), {replica_node(0)});
  IncomingMessage im;
  im.msg = msg;  // no raw bytes
  CryptoVerifier verifier(*crypto, replica_node(0));
  EXPECT_TRUE(verifier.verify(im, replica_node(3)));
}

TEST(Outbound, InPlaceBroadcastSendsToAllPeersOnLane) {
  auto crypto = crypto::make_real_crypto(21);
  FakeTransport transport;
  InPlaceOutbound outbound(/*self=*/1, 4, *crypto, transport);
  outbound.broadcast({Prepare{0, 3, {}, 1, {}}}, /*lane=*/2);

  auto sent = transport.take_sent();
  ASSERT_EQ(sent.size(), 3u);
  std::set<crypto::KeyNodeId> recipients;
  for (const auto& s : sent) {
    recipients.insert(s.to);
    EXPECT_EQ(s.lane, 2u);
    EXPECT_TRUE(decode_message(s.frame).has_value());
  }
  EXPECT_EQ(recipients, (std::set<crypto::KeyNodeId>{0, 2, 3}));
}

TEST(Outbound, AuthPoolSealsAsynchronously) {
  auto crypto = crypto::make_real_crypto(21);
  FakeTransport transport;
  AuthPoolOutbound outbound(/*self=*/0, 4, *crypto, transport, 2, 128);
  for (int i = 0; i < 10; ++i)
    outbound.broadcast({Commit{0, static_cast<SeqNum>(i + 1), {}, 0, {}}},
                       0);
  outbound.send_to(2, Prepare{0, 1, {}, 0, {}}, 0);
  outbound.stop();  // drains the queue, joins workers

  auto sent = transport.take_sent();
  EXPECT_EQ(sent.size(), 10u * 3 + 1);
  for (const auto& s : sent) {
    auto decoded = decode_message(s.frame);
    ASSERT_TRUE(decoded);
    // Every frame verifiable by its addressee.
    CryptoVerifier verifier(*crypto, s.to);
    IncomingMessage im;
    im.msg = decoded->msg;
    im.raw = s.frame;
    im.body_size = decoded->body_size;
    EXPECT_TRUE(verifier.verify(im, replica_node(0)));
  }
}

TEST(Outbound, RequestVerifierChecksClientMac) {
  auto crypto = crypto::make_real_crypto(21);
  Request req;
  req.client = 1001;
  req.id = 4;
  req.payload = to_bytes("op");
  Bytes body = request_authenticated_bytes(req);
  req.auth = crypto::Authenticator::build(
      *crypto, client_node(1001), {replica_node(0), replica_node(1)}, body);

  CryptoVerifier v0(*crypto, replica_node(0));
  EXPECT_TRUE(v0.verify_request(req));
  CryptoVerifier v2(*crypto, replica_node(2));
  EXPECT_FALSE(v2.verify_request(req)) << "not addressed to replica 2";

  req.payload.push_back('!');
  EXPECT_FALSE(v0.verify_request(req)) << "payload tampered";
}

}  // namespace
}  // namespace copbft::test
