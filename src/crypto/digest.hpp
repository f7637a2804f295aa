// Fixed-size digest and MAC value types.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/hex.hpp"

namespace copbft::crypto {

/// 256-bit digest (SHA-256 output, or a cheap stand-in under NullCrypto).
struct Digest {
  std::array<Byte, 32> bytes{};

  bool operator==(const Digest&) const = default;
  auto operator<=>(const Digest&) const = default;

  ByteSpan span() const { return {bytes.data(), bytes.size()}; }
  std::string hex() const { return to_hex(span()); }
};

/// 128-bit message authentication code (truncated HMAC-SHA256, as in
/// PBFT-style authenticators).
struct Mac {
  std::array<Byte, 16> bytes{};

  bool operator==(const Mac&) const = default;

  ByteSpan span() const { return {bytes.data(), bytes.size()}; }
};

struct DigestHash {
  std::size_t operator()(const Digest& d) const {
    std::size_t h;
    std::memcpy(&h, d.bytes.data(), sizeof h);
    return h;
  }
};

}  // namespace copbft::crypto
