// SHA-256 block compression: the scalar reference rounds, a SHA-NI version,
// and the dispatch Sha256 uses.
//
// Private to src/crypto: no public header includes it, and only the crypto
// tests and microbenchmark reach in, to compare the versions and to record
// which one ran. The version is chosen once per process from CPUID:
// SHA-NI when the CPU reports SHA, SSSE3 and SSE4.1, the scalar rounds
// otherwise. Both produce identical states.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define COP_SHA256_HAVE_SHANI 1
#else
#define COP_SHA256_HAVE_SHANI 0
#endif

namespace copbft::crypto::detail {

/// Absorbs `blocks` whole 64-byte blocks starting at `data` into `state`.
using CompressFn = void (*)(std::uint32_t state[8], const Byte* data,
                            std::size_t blocks);

/// FIPS 180-4 rounds in portable C++; the reference for every other version.
void compress_scalar(std::uint32_t state[8], const Byte* data,
                     std::size_t blocks);

#if COP_SHA256_HAVE_SHANI
/// Intel SHA extensions. Call only where shani_supported() is true.
void compress_shani(std::uint32_t state[8], const Byte* data,
                    std::size_t blocks);
#endif

/// True when this CPU can run compress_shani.
bool shani_supported();

/// The compression function Sha256 calls.
CompressFn active_compress();

/// "shani" or "scalar": which version active_compress() is.
const char* active_compress_name();

/// Makes Sha256 run `fn` until destroyed, so a test can drive the same
/// vectors through both versions. Tests only: not for concurrent use.
class ScopedCompress {
 public:
  explicit ScopedCompress(CompressFn fn);
  ~ScopedCompress();
  ScopedCompress(const ScopedCompress&) = delete;
  ScopedCompress& operator=(const ScopedCompress&) = delete;

 private:
  CompressFn saved_;
};

}  // namespace copbft::crypto::detail
