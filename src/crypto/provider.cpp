#include "crypto/provider.hpp"

#include <atomic>
#include <utility>

#include "crypto/sha256.hpp"

namespace copbft::crypto {
namespace {

// FNV-1a 64-bit, widened to fill the digest; NOT cryptographic, used only by
// NullCrypto where adversarial inputs are out of scope.
std::uint64_t fnv1a(ByteSpan data, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (Byte b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::atomic<std::uint64_t> next_provider_id{1};

// One thread's derived pair keys: 4-way set associative, least recently
// used way evicted. Provider id 0 marks a way that was never filled.
class PairKeyCache {
 public:
  template <typename Derive>
  HmacKey get(std::uint64_t provider, std::uint64_t pair, Derive derive) {
    Way* set = ways_[mix(provider * 0x9e3779b97f4a7c15ULL ^ pair) % kSets];
    Way* victim = &set[0];
    ++clock_;
    for (std::size_t i = 0; i < kWays; ++i) {
      Way& way = set[i];
      if (way.provider == provider && way.pair == pair) {
        way.used = clock_;
        return way.key;
      }
      if (way.used < victim->used) victim = &way;
    }
    *victim = Way{provider, pair, clock_, derive()};
    return victim->key;
  }

 private:
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kSets = RealCrypto::kPairCacheSlots / kWays;

  struct Way {
    std::uint64_t provider = 0;
    std::uint64_t pair = 0;
    std::uint64_t used = 0;
    HmacKey key;
  };

  Way ways_[kSets][kWays];
  std::uint64_t clock_ = 0;
};

constinit thread_local PairKeyCache pair_keys;

}  // namespace

RealCrypto::RealCrypto(KeyStore keys)
    : keys_(std::move(keys)),
      id_(next_provider_id.fetch_add(1, std::memory_order_relaxed)) {}

Digest RealCrypto::digest(ByteSpan data) const { return Sha256::hash(data); }

Mac RealCrypto::mac(KeyNodeId sender, KeyNodeId receiver,
                    ByteSpan data) const {
  if (sender > receiver) std::swap(sender, receiver);
  const std::uint64_t pair = (std::uint64_t{sender} << 32) | receiver;
  const HmacKey key = pair_keys.get(
      id_, pair, [&] { return HmacKey(keys_.key_for(sender, receiver)); });
  return hmac_mac(key, data);
}

Digest NullCrypto::digest(ByteSpan data) const {
  std::uint64_t h0 = fnv1a(data, 0);
  Digest out;
  for (int w = 0; w < 4; ++w) {
    std::uint64_t h = mix(h0 + static_cast<std::uint64_t>(w));
    for (int i = 0; i < 8; ++i)
      out.bytes[static_cast<std::size_t>(8 * w + i)] =
          static_cast<Byte>(h >> (8 * i));
  }
  return out;
}

Mac NullCrypto::mac(KeyNodeId sender, KeyNodeId receiver,
                    ByteSpan data) const {
  std::uint64_t pair = (std::uint64_t{sender} << 32) | receiver;
  std::uint64_t h0 = mix(fnv1a(data, pair));
  std::uint64_t h1 = mix(h0);
  Mac out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[static_cast<std::size_t>(i)] = static_cast<Byte>(h0 >> (8 * i));
    out.bytes[static_cast<std::size_t>(8 + i)] =
        static_cast<Byte>(h1 >> (8 * i));
  }
  return out;
}

std::unique_ptr<CryptoProvider> make_real_crypto(std::uint64_t seed) {
  return std::make_unique<RealCrypto>(KeyStore(master_key_from_seed(seed)));
}

std::unique_ptr<CryptoProvider> make_null_crypto() {
  return std::make_unique<NullCrypto>();
}

}  // namespace copbft::crypto
