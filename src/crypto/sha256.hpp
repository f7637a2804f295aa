// SHA-256 (FIPS 180-4), implemented from scratch; incremental interface.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace copbft::crypto {

/// A SHA-256 state after absorbing a whole number of blocks; a context can
/// resume from it without re-absorbing that prefix.
struct Sha256Midstate {
  std::array<std::uint32_t, 8> h{};
  /// Bytes absorbed so far; a multiple of the 64-byte block size.
  std::uint64_t length = 0;
};

/// Incremental SHA-256 context.
///
///   Sha256 ctx;
///   ctx.update(a); ctx.update(b);
///   Digest d = ctx.finish();
///
/// finish() may be called once; reset() re-initializes for reuse.
class Sha256 {
 public:
  Sha256() { reset(); }
  /// Continues a hash whose first `mid.length` bytes are already absorbed.
  explicit Sha256(const Sha256Midstate& mid);

  void reset();
  void update(ByteSpan data);
  Digest finish();

  /// The state so far. Only defined after whole blocks: the bytes absorbed
  /// must be a multiple of 64.
  Sha256Midstate midstate() const;

  /// One-shot convenience.
  static Digest hash(ByteSpan data) {
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
  }

 private:
  std::uint32_t state_[8];
  std::uint64_t total_bytes_;
  Byte buffer_[64];
  std::size_t buffered_;
};

}  // namespace copbft::crypto
