#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "protocol/messages.hpp"
#include "protocol/verifier.hpp"
#include "protocol/wire.hpp"

namespace copbft::protocol {
namespace {

crypto::Authenticator fake_auth(std::uint32_t entries) {
  crypto::Authenticator auth;
  for (std::uint32_t i = 0; i < entries; ++i) {
    crypto::AuthenticatorEntry e;
    e.recipient = i;
    e.mac.bytes.fill(static_cast<Byte>(i + 1));
    auth.entries.push_back(e);
  }
  return auth;
}

Request sample_request(ClientId client, RequestId id, std::size_t payload) {
  Request req;
  req.client = client;
  req.id = id;
  req.flags = kFlagReadOnly;
  req.payload = Bytes(payload, Byte{0x7e});
  req.auth = fake_auth(4);
  return req;
}

template <typename T>
void expect_round_trip(const Message& msg) {
  Bytes encoded = encode_message(msg);
  EXPECT_EQ(encoded.size(), encoded_size(msg));

  auto decoded = decode_message(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->body_size, authenticated_size(msg));
  ASSERT_TRUE(std::holds_alternative<T>(decoded->msg));
  // Canonical encoding: re-encoding reproduces identical bytes.
  EXPECT_EQ(encode_message(decoded->msg), encoded);
}

TEST(Wire, PrimitivesRoundTrip) {
  Bytes buf;
  WireWriter w(buf);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.bytes(to_bytes("hello"));

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(to_string(r.bytes()), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, ReaderBoundsChecked) {
  Bytes buf = {1, 2, 3};
  WireReader r(buf);
  r.u16();
  EXPECT_TRUE(r.ok());
  r.u32();  // only 1 byte left
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u) << "reads after failure return zero";
}

TEST(Wire, ByteStringLengthOverrun) {
  Bytes buf;
  WireWriter w(buf);
  w.u32(1000);  // claims 1000 bytes, provides none
  WireReader r(buf);
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Messages, RequestRoundTrip) {
  expect_round_trip<Request>(sample_request(1001, 7, 128));
}

TEST(Messages, PrePrepareRoundTrip) {
  PrePrepare pp;
  pp.view = 3;
  pp.seq = 42;
  pp.digest.bytes.fill(0x11);
  pp.requests.push_back(sample_request(1001, 1, 16));
  pp.requests.push_back(sample_request(1002, 9, 0));
  pp.auth = fake_auth(3);
  expect_round_trip<PrePrepare>(pp);
}

TEST(Messages, EmptyBatchPrePrepareRoundTrip) {
  PrePrepare pp;
  pp.view = 0;
  pp.seq = 9;
  pp.auth = fake_auth(3);
  expect_round_trip<PrePrepare>(pp);
}

TEST(Messages, PrepareCommitRoundTrip) {
  Prepare p;
  p.view = 1;
  p.seq = 2;
  p.digest.bytes.fill(0x22);
  p.replica = 3;
  p.auth = fake_auth(3);
  expect_round_trip<Prepare>(p);

  Commit c;
  c.view = 1;
  c.seq = 2;
  c.digest.bytes.fill(0x33);
  c.replica = 0;
  c.auth = fake_auth(3);
  expect_round_trip<Commit>(c);
}

TEST(Messages, CheckpointRoundTrip) {
  CheckpointMsg cp;
  cp.seq = 1000;
  cp.digest.bytes.fill(0x44);
  cp.replica = 2;
  cp.auth = fake_auth(3);
  expect_round_trip<CheckpointMsg>(cp);
}

TEST(Messages, ReplyRoundTrip) {
  Reply reply;
  reply.view = 5;
  reply.client = 1003;
  reply.id = 77;
  reply.replica = 1;
  reply.result = to_bytes("result bytes");
  reply.auth = fake_auth(1);
  expect_round_trip<Reply>(reply);
}

TEST(Messages, ViewChangeRoundTrip) {
  ViewChange vc;
  vc.new_view = 2;
  vc.stable_seq = 1000;
  vc.stable_digest.bytes.fill(0x55);
  vc.replica = 3;
  PreparedProof proof;
  proof.view = 1;
  proof.seq = 1001;
  proof.digest.bytes.fill(0x66);
  proof.requests.push_back(sample_request(1001, 3, 64));
  vc.prepared.push_back(proof);
  vc.auth = fake_auth(3);
  expect_round_trip<ViewChange>(vc);
}

TEST(Messages, NewViewRoundTrip) {
  NewView nv;
  nv.view = 2;
  nv.replica = 2;
  PrePrepare pp;
  pp.view = 2;
  pp.seq = 1001;
  pp.digest.bytes.fill(0x77);
  pp.requests.push_back(sample_request(1001, 3, 8));
  nv.pre_prepares.push_back(pp);
  nv.auth = fake_auth(3);
  expect_round_trip<NewView>(nv);
}

TEST(Messages, DecodeRejectsUnknownTag) {
  Bytes buf = {99, 0, 0, 0};
  EXPECT_FALSE(decode_message(buf).has_value());
}

TEST(Messages, DecodeRejectsTrailingGarbage) {
  Bytes encoded = encode_message(sample_request(1001, 1, 4));
  encoded.push_back(0);
  EXPECT_FALSE(decode_message(encoded).has_value());
}

TEST(Messages, DecodeRejectsAllTruncations) {
  PrePrepare pp;
  pp.view = 1;
  pp.seq = 2;
  pp.digest.bytes.fill(0x42);
  pp.requests.push_back(sample_request(1001, 1, 32));
  pp.auth = fake_auth(3);
  Bytes encoded = encode_message(Message{pp});
  // Any strict prefix must be rejected, never crash or over-read.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    auto decoded = decode_message(ByteSpan{encoded.data(), len});
    EXPECT_FALSE(decoded.has_value()) << "truncated to " << len;
  }
}

TEST(Messages, DecodeSurvivesRandomCorruption) {
  Rng rng(2024);
  Bytes original = encode_message(sample_request(1001, 5, 64));
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes corrupted = original;
    std::size_t flips = 1 + rng.below(4);
    for (std::size_t i = 0; i < flips; ++i)
      corrupted[rng.below(corrupted.size())] ^=
          static_cast<Byte>(1 + rng.below(255));
    // Must not crash; may decode to a different but well-formed message.
    auto decoded = decode_message(corrupted);
    if (decoded) {
      Bytes re = encode_message(decoded->msg);
      EXPECT_EQ(re.size(), corrupted.size());
    }
  }
}

TEST(Messages, DecodeSurvivesRandomNoise) {
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes noise(rng.below(256));
    for (auto& b : noise) b = static_cast<Byte>(rng.below(256));
    (void)decode_message(noise);  // must not crash / over-read
  }
}

// A vote bundle from replica 1 as replica 0 receives it, with a fake
// authenticator for the three peers.
Bytes sample_bundle() {
  crypto::Digest digest;
  digest.bytes.fill(0x5a);
  Bytes out;
  write_vote_bundle(out, 1,
                    {Prepare{2, 7, digest, 1, {}}, Commit{2, 7, digest, 1, {}},
                     CheckpointMsg{100, digest, 1, {}}});
  WireWriter(out).authenticator(fake_auth(3));
  return out;
}

TEST(Messages, BundleParseRejectsAllTruncations) {
  const Bytes encoded = sample_bundle();
  ASSERT_TRUE(parse_vote_bundle(encoded, 0, 4));
  for (std::size_t len = 0; len < encoded.size(); ++len)
    EXPECT_FALSE(parse_vote_bundle(
        Bytes(encoded.begin(), encoded.begin() + static_cast<long>(len)), 0,
        4))
        << "truncated to " << len;
}

// Seeded mutants of an encoded bundle (byte flips, truncation, inserted
// bytes): each parses to votes from the bundle's sender or is rejected
// whole, and checking a parsed one reads only inside its frame.
TEST(Messages, BundleParseSurvivesRandomCorruption) {
  Rng rng(2026);
  const Bytes original = sample_bundle();
  auto crypto = crypto::make_null_crypto();
  CryptoVerifier verifier(*crypto, replica_node(0));
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutant = original;
    switch (rng.below(3)) {
      case 0: {
        const std::size_t flips = 1 + rng.below(4);
        for (std::size_t i = 0; i < flips; ++i)
          mutant[rng.below(mutant.size())] ^=
              static_cast<Byte>(1 + rng.below(255));
        break;
      }
      case 1:
        mutant.resize(rng.below(mutant.size()));
        break;
      default:
        mutant.insert(mutant.begin() +
                          static_cast<long>(rng.below(mutant.size() + 1)),
                      static_cast<Byte>(rng.below(256)));
        break;
    }
    auto bundled = parse_vote_bundle(std::move(mutant), 0, 4);
    if (!bundled) continue;
    ASSERT_FALSE(bundled->empty());
    VoteBundle& bundle = *bundled->front().bundle;
    EXPECT_NE(bundle.sender, 0u);
    EXPECT_LT(bundle.sender, 4u);
    EXPECT_LE(bundle.body_size, bundle.frame.size());
    for (const IncomingMessage& im : *bundled) {
      EXPECT_EQ(im.bundle.get(), &bundle);
      EXPECT_TRUE(is_vote(im.msg));
      EXPECT_EQ(sender_node(im.msg), replica_node(bundle.sender));
      EXPECT_TRUE(authenticator_of(im.msg).entries.empty());
    }
    (void)verifier.check_bundle(bundle);
  }
}

TEST(Messages, BatchDigestIgnoresAuthenticators) {
  auto crypto = crypto::make_null_crypto();
  Request a = sample_request(1001, 1, 16);
  Request b = a;
  b.auth = fake_auth(1);  // different authenticator, same content
  EXPECT_EQ(batch_digest(*crypto, {a}), batch_digest(*crypto, {b}));
  b.payload[0] ^= 1;
  EXPECT_NE(batch_digest(*crypto, {a}), batch_digest(*crypto, {b}));
}

TEST(Messages, BatchDigestOrderSensitive) {
  auto crypto = crypto::make_null_crypto();
  Request a = sample_request(1001, 1, 4);
  Request b = sample_request(1002, 2, 4);
  EXPECT_NE(batch_digest(*crypto, {a, b}), batch_digest(*crypto, {b, a}));
}

TEST(Messages, AuthenticatedPartExcludesAuthenticator) {
  Message msg{sample_request(1001, 1, 8)};
  Bytes full = encode_message(msg);
  Bytes part = encode_authenticated_part(msg);
  ASSERT_LT(part.size(), full.size());
  EXPECT_TRUE(std::equal(part.begin(), part.end(), full.begin()));
  EXPECT_EQ(part.size(), authenticated_size(msg));
}

TEST(Messages, TypeNames) {
  EXPECT_STREQ(type_name(MsgType::kPrePrepare), "PRE-PREPARE");
  EXPECT_STREQ(type_name(type_of(Message{Prepare{}})), "PREPARE");
  EXPECT_STREQ(type_name(type_of(Message{CheckpointMsg{}})), "CHECKPOINT");
}

TEST(Messages, SenderNode) {
  EXPECT_EQ(sender_node(Message{sample_request(1001, 1, 0)}), 1001u);
  Prepare p;
  p.replica = 2;
  EXPECT_EQ(sender_node(Message{p}), 2u);
  EXPECT_EQ(sender_node(Message{PrePrepare{}}), kUnknownNode);
}

}  // namespace
}  // namespace copbft::protocol
