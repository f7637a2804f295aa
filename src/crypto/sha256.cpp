#include "crypto/sha256.hpp"

#include <cassert>
#include <cstring>

#include "crypto/sha256_compress.hpp"

namespace copbft::crypto {
namespace {

inline void store32_be(Byte* p, std::uint32_t v) {
  p[0] = static_cast<Byte>(v >> 24);
  p[1] = static_cast<Byte>(v >> 16);
  p[2] = static_cast<Byte>(v >> 8);
  p[3] = static_cast<Byte>(v);
}

}  // namespace

Sha256::Sha256(const Sha256Midstate& mid)
    : total_bytes_(mid.length), buffered_(0) {
  assert(mid.length % sizeof buffer_ == 0);
  std::memcpy(state_, mid.h.data(), sizeof state_);
}

void Sha256::reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_bytes_ = 0;
  buffered_ = 0;
}

Sha256Midstate Sha256::midstate() const {
  assert(buffered_ == 0);
  Sha256Midstate mid;
  std::memcpy(mid.h.data(), state_, sizeof state_);
  mid.length = total_bytes_;
  return mid;
}

void Sha256::update(ByteSpan data) {
  const detail::CompressFn compress = detail::active_compress();
  total_bytes_ += data.size();
  const Byte* p = data.data();
  std::size_t n = data.size();

  if (buffered_ > 0) {
    std::size_t take = std::min(n, sizeof buffer_ - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == sizeof buffer_) {
      compress(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  if (n >= 64) {
    compress(state_, p, n / 64);
    p += n & ~std::size_t{63};
    n &= 63;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

Digest Sha256::finish() {
  std::uint64_t bit_len = total_bytes_ * 8;

  // Padding: 0x80, zeros, 64-bit big-endian length.
  Byte pad[72];
  std::size_t pad_len = (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i)
    pad[pad_len + i] = static_cast<Byte>(bit_len >> (56 - 8 * i));
  update(ByteSpan{pad, pad_len + 8});

  Digest out;
  for (int i = 0; i < 8; ++i) store32_be(out.bytes.data() + 4 * i, state_[i]);
  return out;
}

}  // namespace copbft::crypto
