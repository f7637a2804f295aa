// CryptoProvider — the seam between protocol logic and cryptography.
//
// Two implementations:
//  * RealCrypto  — SHA-256 / HMAC-SHA256 over the cluster KeyStore; used by
//    the threaded runtime, integration tests and examples.
//  * NullCrypto  — cheap non-cryptographic stand-ins with identical
//    semantics (equal inputs -> equal digests/MACs, unequal inputs almost
//    surely differ); used by the simulator, where CPU cost is accounted by
//    the cost model instead of burned for real, and by fast unit tests.
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/key_store.hpp"

namespace copbft::crypto {

class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  /// Content digest used for request/batch/state identity.
  virtual Digest digest(ByteSpan data) const = 0;

  /// MAC over `data` for the directed pair sender -> receiver.
  virtual Mac mac(KeyNodeId sender, KeyNodeId receiver,
                  ByteSpan data) const = 0;

  virtual bool verify_mac(KeyNodeId sender, KeyNodeId receiver, ByteSpan data,
                          const Mac& candidate) const {
    return mac_equal(mac(sender, receiver, data), candidate);
  }
};

/// MACs start from per-pair HMAC midstates (HmacKey) that each thread keeps
/// in a small fixed-size cache of its own, keyed by (provider, unordered
/// pair). A miss derives the pair key through KeyStore::key_for; a hit
/// copies the midstates out. The MAC path takes no lock and writes no
/// shared memory, and the cache stays the same size however many peers a
/// thread talks to.
class RealCrypto final : public CryptoProvider {
 public:
  /// Pair keys each thread keeps derived, across all providers.
  static constexpr std::size_t kPairCacheSlots = 64;

  explicit RealCrypto(KeyStore keys);

  Digest digest(ByteSpan data) const override;
  Mac mac(KeyNodeId sender, KeyNodeId receiver, ByteSpan data) const override;

 private:
  KeyStore keys_;
  /// Names this key store in the per-thread caches. Drawn from a
  /// process-wide counter and never reused, so a provider built where a
  /// destroyed one lived never sees the old one's keys.
  std::uint64_t id_;
};

class NullCrypto final : public CryptoProvider {
 public:
  Digest digest(ByteSpan data) const override;
  Mac mac(KeyNodeId sender, KeyNodeId receiver, ByteSpan data) const override;
};

/// RealCrypto over a key store seeded from `seed`.
std::unique_ptr<CryptoProvider> make_real_crypto(std::uint64_t seed);
std::unique_ptr<CryptoProvider> make_null_crypto();

}  // namespace copbft::crypto
