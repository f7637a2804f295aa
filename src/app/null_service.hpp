// Microbenchmark service: no application work, configurable reply size.
// This is the paper's "service implementation that does not perform
// calculations but answers totally ordered requests with replies of
// configurable size" (§5.1).
//
// Its only state is the execution count and the key of the last request,
// enough for checkpoint digests and state transfer to have something to
// agree on.
#pragma once

#include "app/service.hpp"

namespace copbft::app {

class NullService final : public Service {
 public:
  explicit NullService(std::size_t reply_size = 0)
      : reply_(reply_size, Byte{0xab}) {}

  Bytes execute(const protocol::Request& request) override {
    ++executed_;
    last_key_ = request.key();
    return reply_;
  }

  crypto::Digest state_digest() const override {
    return digest_of(executed_, last_key_);
  }

  std::uint64_t executed() const { return executed_; }

  /// [executed u64 LE | last key u64 LE].
  Bytes snapshot() const override {
    Bytes out(16);
    for (std::size_t i = 0; i < 8; ++i) {
      out[i] = static_cast<Byte>(executed_ >> (8 * i));
      out[8 + i] = static_cast<Byte>(last_key_ >> (8 * i));
    }
    return out;
  }

  bool restore(ByteSpan snapshot, const crypto::Digest& expect) override {
    if (snapshot.size() != 16) return false;
    std::uint64_t executed = 0;
    std::uint64_t last_key = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      executed |= static_cast<std::uint64_t>(snapshot[i]) << (8 * i);
      last_key |= static_cast<std::uint64_t>(snapshot[8 + i]) << (8 * i);
    }
    if (digest_of(executed, last_key) != expect) return false;
    executed_ = executed;
    last_key_ = last_key;
    return true;
  }

 private:
  /// FNV-1a over (count, last key): cheap, and identical across replicas
  /// that executed the same sequence.
  static crypto::Digest digest_of(std::uint64_t executed,
                                  std::uint64_t last_key) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t v : {executed, last_key}) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
    }
    crypto::Digest d;
    for (std::size_t i = 0; i < 8; ++i)
      d.bytes[i] = static_cast<Byte>(h >> (8 * i));
    return d;
  }

  Bytes reply_;
  std::uint64_t executed_ = 0;
  std::uint64_t last_key_ = 0;
};

}  // namespace copbft::app
