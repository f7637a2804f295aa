// Explicit little-endian wire serialization primitives.
//
// All protocol messages are encoded with these; the encoding is canonical
// (one valid encoding per message), which lets MACs and digests be computed
// over encoded bodies.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/digest.hpp"

namespace copbft::protocol {

class WireWriter {
 public:
  explicit WireWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }

  /// Length-prefixed (u32) byte string.
  void bytes(ByteSpan data) {
    u32(static_cast<std::uint32_t>(data.size()));
    append(out_, data);
  }

  /// Fixed-size raw bytes (no length prefix).
  void raw(ByteSpan data) { append(out_, data); }

  void digest(const crypto::Digest& d) { raw(d.span()); }
  void mac(const crypto::Mac& m) { raw(m.span()); }

  void authenticator(const crypto::Authenticator& a) {
    u16(static_cast<std::uint16_t>(a.entries.size()));
    for (const auto& e : a.entries) {
      u32(e.recipient);
      mac(e.mac);
    }
  }

  std::size_t size() const { return out_.size(); }

 private:
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) out_.push_back(static_cast<Byte>(v >> (8 * i)));
  }

  Bytes& out_;
};

/// Bounds-checked reader; after any failed read, ok() is false and all
/// subsequent reads return zero values.
class WireReader {
 public:
  explicit WireReader(ByteSpan data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }

  Bytes bytes() {
    const ByteSpan view = bytes_view();
    return Bytes(view.begin(), view.end());
  }

  /// Length-prefixed (u32) byte string as a view into the input.
  ByteSpan bytes_view() {
    std::uint32_t n = u32();
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    const ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  crypto::Digest digest() {
    crypto::Digest d;
    fixed(d.bytes.data(), d.bytes.size());
    return d;
  }

  crypto::Mac mac() {
    crypto::Mac m;
    fixed(m.bytes.data(), m.bytes.size());
    return m;
  }

  crypto::Authenticator authenticator() {
    crypto::Authenticator a;
    std::uint16_t n = u16();
    // Entry count is bounded by what the remaining bytes can hold, which
    // caps allocation from malformed input.
    if (!ok_ || (data_.size() - pos_) / 20 < n) {
      ok_ = false;
      return a;
    }
    a.entries.reserve(n);
    for (std::uint16_t i = 0; i < n && ok_; ++i) {
      crypto::AuthenticatorEntry e;
      e.recipient = u32();
      e.mac = mac();
      a.entries.push_back(e);
    }
    return a;
  }

  /// Steps over `n` bytes.
  void skip(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    pos_ += n;
  }

  bool ok() const { return ok_; }
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return ok_ && pos_ == data_.size(); }

 private:
  std::uint64_t get_le(int n) {
    if (!ok_ || data_.size() - pos_ < static_cast<std::size_t>(n)) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
      v |= std::uint64_t{data_[pos_ + static_cast<std::size_t>(i)]} << (8 * i);
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  void fixed(Byte* dst, std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    std::copy_n(data_.data() + pos_, n, dst);
    pos_ += n;
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace copbft::protocol
