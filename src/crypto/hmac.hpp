// HMAC-SHA256 (RFC 2104), built on our SHA-256.
#pragma once

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"

namespace copbft::crypto {

/// Symmetric key used for pairwise message authentication.
struct SymmetricKey {
  std::array<Byte, 32> bytes{};

  bool operator==(const SymmetricKey&) const = default;
  ByteSpan span() const { return {bytes.data(), bytes.size()}; }
};

/// A key in the form HMAC consumes it: the SHA-256 midstates after
/// absorbing key XOR ipad and key XOR opad. Building one costs two
/// compressions; every HMAC under it then starts from the midstates, so a
/// MAC over n bytes costs ceil((n + 9) / 64) + 1 compressions.
struct HmacKey {
  Sha256Midstate inner;
  Sha256Midstate outer;

  HmacKey() = default;
  explicit HmacKey(const SymmetricKey& key);
};

/// One-shot HMAC-SHA256 of `data` under `key`.
Digest hmac_sha256(const HmacKey& key, ByteSpan data);
Digest hmac_sha256(const SymmetricKey& key, ByteSpan data);

/// HMAC truncated to a 128-bit MAC (the form carried in authenticators).
Mac hmac_mac(const HmacKey& key, ByteSpan data);
Mac hmac_mac(const SymmetricKey& key, ByteSpan data);

/// Constant-time MAC comparison.
bool mac_equal(const Mac& a, const Mac& b);

}  // namespace copbft::crypto
