#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key_store.hpp"
#include "crypto/provider.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"

namespace copbft::crypto {
namespace {

// ---- compression versions --------------------------------------------

enum class Compress { kScalar, kShaNi };

// Runs a test with Sha256 on one compression version. Only the SHA-NI half
// skips, and only where CPUID lacks the SHA extensions, so a runner without
// them still checks the scalar rounds against every vector.
class OnCompress : public testing::TestWithParam<Compress> {
 protected:
  void SetUp() override {
    if (GetParam() == Compress::kScalar) {
      forced_.emplace(detail::compress_scalar);
      return;
    }
#if COP_SHA256_HAVE_SHANI
    if (detail::shani_supported()) {
      forced_.emplace(detail::compress_shani);
      return;
    }
#endif
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }

 private:
  std::optional<detail::ScopedCompress> forced_;
};

std::string compress_name(const testing::TestParamInfo<Compress>& info) {
  return info.param == Compress::kScalar ? "scalar" : "shani";
}

TEST(Sha256Compress, ShaNiMatchesScalarOnRandomStates) {
#if COP_SHA256_HAVE_SHANI
  if (!detail::shani_supported())
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(0x5a256);
  // Spare bytes so the blocks can start off a 16-byte boundary.
  std::vector<Byte> data(8 * 64 + 16);
  int mismatches = 0;
  for (int c = 0; c < 20'000; ++c) {
    std::uint32_t scalar[8];
    for (auto& word : scalar) word = static_cast<std::uint32_t>(rng());
    std::uint32_t shani[8];
    std::memcpy(shani, scalar, sizeof shani);
    for (auto& b : data) b = static_cast<Byte>(rng());
    const std::size_t blocks = 1 + rng.below(8);
    const Byte* at = data.data() + rng.below(16);
    detail::compress_scalar(scalar, at, blocks);
    detail::compress_shani(shani, at, blocks);
    if (std::memcmp(scalar, shani, sizeof scalar) != 0) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
#else
  GTEST_SKIP() << "SHA-NI is x86-64 only";
#endif
}

TEST(Sha256Compress, ActiveVersionFollowsCpuid) {
  EXPECT_STREQ(detail::active_compress_name(),
               detail::shani_supported() ? "shani" : "scalar");
}

// ---- SHA-256 (FIPS 180-4 / NIST CAVS vectors) -----------------------------

using Sha256Kat = OnCompress;
INSTANTIATE_TEST_SUITE_P(Both, Sha256Kat,
                         testing::Values(Compress::kScalar, Compress::kShaNi),
                         compress_name);

TEST_P(Sha256Kat, EmptyString) {
  EXPECT_EQ(Sha256::hash({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256Kat, Abc) {
  EXPECT_EQ(Sha256::hash(to_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256Kat, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hash(to_bytes(
                       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Kat, MillionA) {
  Sha256 ctx;
  Bytes chunk(1000, Byte{'a'});
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(ctx.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Kat, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-second-block path.
  Bytes input(64, Byte{'x'});
  Digest once = Sha256::hash(input);
  Sha256 ctx;
  ctx.update(ByteSpan{input.data(), 31});
  ctx.update(ByteSpan{input.data() + 31, 33});
  EXPECT_EQ(ctx.finish(), once);
}

TEST_P(Sha256Kat, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<Byte>(i * 7));
  for (std::size_t split : {0UL, 1UL, 63UL, 64UL, 65UL, 999UL}) {
    Sha256 ctx;
    ctx.update(ByteSpan{data.data(), split});
    ctx.update(ByteSpan{data.data() + split, data.size() - split});
    EXPECT_EQ(ctx.finish(), Sha256::hash(data)) << "split=" << split;
  }
}

TEST_P(Sha256Kat, LengthExtension55To57) {
  // Lengths around the 56-byte padding threshold.
  for (std::size_t len = 50; len <= 70; ++len) {
    Bytes a(len, Byte{0x41});
    Bytes b(len, Byte{0x41});
    EXPECT_EQ(Sha256::hash(a), Sha256::hash(b));
    b.back() = 0x42;
    EXPECT_NE(Sha256::hash(a), Sha256::hash(b));
  }
}

TEST_P(Sha256Kat, EverySplitMatchesOneShot) {
  Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<Byte>(i * 131 + 7);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const Digest once = Sha256::hash(ByteSpan{data.data(), len});
    // Every first cut, with the rest split again in the middle.
    for (std::size_t a = 0; a <= len; ++a) {
      const std::size_t b = a + (len - a) / 2;
      Sha256 ctx;
      ctx.update(ByteSpan{data.data(), a});
      ctx.update(ByteSpan{data.data() + a, b - a});
      ctx.update(ByteSpan{data.data() + b, len - b});
      ASSERT_EQ(ctx.finish(), once) << "len=" << len << " cuts=" << a << ","
                                    << b;
    }
    Sha256 bytewise;
    for (std::size_t i = 0; i < len; ++i)
      bytewise.update(ByteSpan{data.data() + i, 1});
    ASSERT_EQ(bytewise.finish(), once) << "len=" << len << " byte by byte";
  }
}

TEST_P(Sha256Kat, ResumedFromMidstateMatchesOneShot) {
  Bytes data(4 * 64 + 130);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<Byte>(i * 17 + 3);
  for (std::size_t blocks = 0; blocks <= 4; ++blocks) {
    const std::size_t prefix = 64 * blocks;
    Sha256 head;
    head.update(ByteSpan{data.data(), prefix});
    const Sha256Midstate mid = head.midstate();
    EXPECT_EQ(mid.length, prefix);
    for (std::size_t tail = 0; tail <= 130; ++tail) {
      Sha256 resumed(mid);
      resumed.update(ByteSpan{data.data() + prefix, tail});
      ASSERT_EQ(resumed.finish(), Sha256::hash(ByteSpan{data.data(),
                                                        prefix + tail}))
          << "blocks=" << blocks << " tail=" << tail;
    }
  }
}

// ---- HMAC-SHA256 (RFC 4231 vectors) ----------------------------------

using HmacKat = OnCompress;
INSTANTIATE_TEST_SUITE_P(Both, HmacKat,
                         testing::Values(Compress::kScalar, Compress::kShaNi),
                         compress_name);

SymmetricKey key_of(const Bytes& raw) {
  SymmetricKey key{};
  std::copy_n(raw.begin(), std::min(raw.size(), key.bytes.size()),
              key.bytes.begin());
  return key;
}

TEST_P(HmacKat, Rfc4231Case1Truncated) {
  // Key = 20 x 0x0b (zero-padded to 32 bytes differs from RFC's exact key
  // handling only if key > block size, which does not apply), data "Hi
  // There". We verify against a reference computed for the padded key via
  // the definition itself (inner/outer), i.e. self-consistency plus the
  // independent property tests below.
  SymmetricKey key = key_of(Bytes(20, Byte{0x0b}));
  Digest mac = hmac_sha256(key, to_bytes("Hi There"));
  // HMAC with the 32-byte zero-padded key equals HMAC with the 20-byte key
  // because HMAC zero-pads keys shorter than the block size.
  EXPECT_EQ(mac.hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST_P(HmacKat, Rfc4231Case2) {
  SymmetricKey key = key_of(to_bytes("Jefe"));
  Digest mac = hmac_sha256(key, to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(mac.hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST_P(HmacKat, Rfc4231Case3) {
  SymmetricKey key = key_of(Bytes(20, Byte{0xaa}));
  Digest mac = hmac_sha256(key, Bytes(50, Byte{0xdd}));
  EXPECT_EQ(mac.hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST_P(HmacKat, KeySensitivity) {
  SymmetricKey k1 = key_of(to_bytes("one"));
  SymmetricKey k2 = key_of(to_bytes("two"));
  Bytes data = to_bytes("payload");
  EXPECT_NE(hmac_sha256(k1, data), hmac_sha256(k2, data));
}

TEST_P(HmacKat, TruncatedMacEquality) {
  SymmetricKey key = key_of(to_bytes("k"));
  Mac a = hmac_mac(key, to_bytes("m"));
  Mac b = hmac_mac(key, to_bytes("m"));
  EXPECT_TRUE(mac_equal(a, b));
  Mac c = hmac_mac(key, to_bytes("n"));
  EXPECT_FALSE(mac_equal(a, c));
}

TEST_P(HmacKat, MidstateKeyRfc4231Cases1To3) {
  struct Case {
    SymmetricKey key;
    Bytes data;
    const char* hmac;
  };
  const Case cases[] = {
      {key_of(Bytes(20, Byte{0x0b})), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {key_of(to_bytes("Jefe")), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {key_of(Bytes(20, Byte{0xaa})), Bytes(50, Byte{0xdd}),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
  };
  for (const Case& c : cases) {
    const HmacKey key(c.key);
    EXPECT_EQ(key.inner.length, 64u);
    EXPECT_EQ(key.outer.length, 64u);
    const Digest full = hmac_sha256(key, c.data);
    EXPECT_EQ(full.hex(), c.hmac);
    const Mac mac = hmac_mac(key, c.data);
    EXPECT_TRUE(std::equal(mac.bytes.begin(), mac.bytes.end(),
                           full.bytes.begin()));
  }
}

// ---- key store -------------------------------------------------------

TEST(KeyStore, PairwiseSymmetry) {
  KeyStore ks(master_key_from_seed(42));
  EXPECT_EQ(ks.key_for(1, 2), ks.key_for(2, 1));
  EXPECT_EQ(ks.key_for(0, 1000), ks.key_for(1000, 0));
}

TEST(KeyStore, DistinctPairsDistinctKeys) {
  KeyStore ks(master_key_from_seed(42));
  EXPECT_NE(ks.key_for(1, 2), ks.key_for(1, 3));
  EXPECT_NE(ks.key_for(1, 2), ks.key_for(2, 3));
}

TEST(KeyStore, DifferentMastersDiffer) {
  KeyStore a(master_key_from_seed(1));
  KeyStore b(master_key_from_seed(2));
  EXPECT_NE(a.key_for(0, 1), b.key_for(0, 1));
}

// ---- providers -------------------------------------------------------

TEST(Providers, RealCryptoMacRoundTrip) {
  auto crypto = make_real_crypto(7);
  Bytes data = to_bytes("hello world");
  Mac mac = crypto->mac(0, 1, data);
  EXPECT_TRUE(crypto->verify_mac(0, 1, data, mac));
  EXPECT_TRUE(crypto->verify_mac(1, 0, data, mac)) << "pairwise symmetric";
  EXPECT_FALSE(crypto->verify_mac(0, 2, data, mac));
  data.push_back('!');
  EXPECT_FALSE(crypto->verify_mac(0, 1, data, mac));
}

TEST_P(HmacKat, RealCryptoBytesUnchanged) {
  // Frozen from the scalar implementation before HMAC kept midstates:
  // the wire carries these bytes, so they must never move.
  auto crypto = make_real_crypto(7);
  Bytes data = to_bytes("hello world");
  EXPECT_EQ(to_hex(crypto->mac(0, 1, data).span()),
            "1196eb7bb433f80609370c62d4424ad3");
  EXPECT_EQ(to_hex(crypto->mac(1, 0, data).span()),
            "1196eb7bb433f80609370c62d4424ad3");
  EXPECT_EQ(to_hex(crypto->mac(3, 1'000'001, data).span()),
            "2758ef047bed8fa9453bece6f7d36ed9");
  EXPECT_EQ(crypto->digest(data).hex(),
            "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9");
}

// ---- RealCrypto's per-thread pair key cache ---------------------------

Mac reference_mac(std::uint64_t seed, KeyNodeId a, KeyNodeId b,
                  ByteSpan data) {
  return hmac_mac(KeyStore(master_key_from_seed(seed)).key_for(a, b), data);
}

// mac() and verify_mac() of `crypto` agree with the uncached reference.
void expect_reference(const CryptoProvider& crypto, std::uint64_t seed,
                      KeyNodeId a, KeyNodeId b, ByteSpan data) {
  const Mac want = reference_mac(seed, a, b, data);
  EXPECT_EQ(crypto.mac(a, b, data), want) << a << "->" << b;
  EXPECT_TRUE(crypto.verify_mac(a, b, data, want)) << a << "->" << b;
  Mac wrong = want;
  wrong.bytes[0] ^= 1;
  EXPECT_FALSE(crypto.verify_mac(a, b, data, wrong)) << a << "->" << b;
}

TEST(ProviderCache, MorePairsThanSlots) {
  const RealCrypto crypto(KeyStore(master_key_from_seed(11)));
  const Bytes data = to_bytes("cache pressure");
  const KeyNodeId pairs = 3 * RealCrypto::kPairCacheSlots;
  // The second pass meets every pair again after it was evicted, and asks
  // for it the other way round.
  for (KeyNodeId i = 0; i < pairs; ++i)
    expect_reference(crypto, 11, i % 4, 100 + i, data);
  for (KeyNodeId i = 0; i < pairs; ++i)
    expect_reference(crypto, 11, 100 + i, i % 4, data);
}

TEST(ProviderCache, TwoProvidersInterleavedOnOneThread) {
  const RealCrypto one(KeyStore(master_key_from_seed(1)));
  const RealCrypto two(KeyStore(master_key_from_seed(2)));
  const Bytes data = to_bytes("same pair, two clusters");
  // Enough pairs that some land in the same cache set for both providers.
  for (int round = 0; round < 3; ++round) {
    for (KeyNodeId peer = 1; peer <= 64; ++peer) {
      expect_reference(one, 1, 0, peer, data);
      expect_reference(two, 2, 0, peer, data);
      EXPECT_NE(one.mac(0, peer, data), two.mac(0, peer, data));
    }
  }
}

TEST(ProviderCache, ProviderRebuiltAtSameAddress) {
  std::optional<RealCrypto> slot;
  const Bytes data = to_bytes("new provider, old address");
  slot.emplace(KeyStore(master_key_from_seed(21)));
  const void* address = &*slot;
  for (KeyNodeId peer = 1; peer < 6; ++peer)
    expect_reference(*slot, 21, 0, peer, data);
  slot.reset();
  slot.emplace(KeyStore(master_key_from_seed(22)));
  ASSERT_EQ(static_cast<const void*>(&*slot), address);
  for (KeyNodeId peer = 1; peer < 6; ++peer)
    expect_reference(*slot, 22, 0, peer, data);
}

TEST(ProviderCache, FourThreadsMacSamePairs) {
  auto crypto = make_real_crypto(31);
  const Bytes data = to_bytes("four threads, one provider");
  std::vector<Mac> want;
  for (KeyNodeId a = 0; a < 4; ++a)
    for (KeyNodeId b = 0; b < 4; ++b)
      want.push_back(reference_mac(31, a, b, data));
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 500; ++iter) {
        for (KeyNodeId a = 0; a < 4; ++a) {
          for (KeyNodeId b = 0; b < 4; ++b) {
            const Mac& expected = want[4 * a + b];
            if (crypto->mac(a, b, data) != expected ||
                !crypto->verify_mac(b, a, data, expected))
              wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Providers, NullCryptoSemantics) {
  auto crypto = make_null_crypto();
  EXPECT_EQ(crypto->digest(to_bytes("a")), crypto->digest(to_bytes("a")));
  EXPECT_NE(crypto->digest(to_bytes("a")), crypto->digest(to_bytes("b")));
  Mac mac = crypto->mac(3, 4, to_bytes("x"));
  EXPECT_TRUE(crypto->verify_mac(3, 4, to_bytes("x"), mac));
  EXPECT_FALSE(crypto->verify_mac(3, 5, to_bytes("x"), mac));
  EXPECT_FALSE(crypto->verify_mac(3, 4, to_bytes("y"), mac));
}

// ---- authenticators ----------------------------------------------------

TEST(Authenticator, BuildAndVerifyPerRecipient) {
  auto crypto = make_real_crypto(9);
  Bytes data = to_bytes("message body");
  auto auth = Authenticator::build(*crypto, 0, {1, 2, 3}, data);
  ASSERT_EQ(auth.entries.size(), 3u);
  for (KeyNodeId r : {1u, 2u, 3u})
    EXPECT_TRUE(auth.verify(*crypto, 0, r, data));
  EXPECT_FALSE(auth.verify(*crypto, 0, 4, data)) << "not addressed";
  EXPECT_FALSE(auth.verify(*crypto, 1, 2, data)) << "wrong claimed sender";
}

TEST(Authenticator, TamperedBodyFails) {
  auto crypto = make_real_crypto(9);
  Bytes data = to_bytes("message body");
  auto auth = Authenticator::build(*crypto, 0, {1}, data);
  data[0] ^= 1;
  EXPECT_FALSE(auth.verify(*crypto, 0, 1, data));
}

TEST(Authenticator, WireSizeFormula) {
  auto crypto = make_null_crypto();
  auto auth = Authenticator::build(*crypto, 0, {1, 2, 3}, to_bytes("x"));
  EXPECT_EQ(auth.wire_size(), 2 + 3 * (4 + 16));
}

}  // namespace
}  // namespace copbft::crypto
