// Replicated key-value store service.
//
// Operation encoding (see KvOp helpers):
//   request : [op u8 | key bytes | value bytes]
//   reply   : [status u8 | value bytes]
//
// The state digest is the XOR of one digest per live entry: it does not
// depend on insertion or iteration order, and each mutation updates it in
// O(1).
#pragma once

#include <atomic>
#include <string>
#include <unordered_map>

#include "app/service.hpp"

namespace copbft::app {

enum class KvOpCode : std::uint8_t { kGet = 1, kPut = 2, kDelete = 3 };
enum class KvStatus : std::uint8_t { kOk = 0, kNotFound = 1, kBadRequest = 2 };

struct KvOp {
  KvOpCode op = KvOpCode::kGet;
  std::string key;
  Bytes value;

  Bytes encode() const;
  static std::optional<KvOp> decode(ByteSpan payload);
};

struct KvResult {
  KvStatus status = KvStatus::kOk;
  Bytes value;

  Bytes encode() const;
  static std::optional<KvResult> decode(ByteSpan payload);
};

class KvStore final : public Service {
 public:
  explicit KvStore(const crypto::CryptoProvider& crypto) : crypto_(crypto) {}

  Bytes execute(const protocol::Request& request) override;
  /// Quiescent-point only (asserted): must not run while an execute() is
  /// in flight.
  crypto::Digest state_digest() const override;
  bool pre_validate(const protocol::Request& request) override {
    return KvOp::decode(request.payload).has_value();
  }
  /// Canonical (sorted-by-key) encoding: [n u32 | (key bytes, value
  /// bytes) * n]. Sorting is for reproducibility only — the XOR digest is
  /// order-independent, so verification does not depend on it.
  Bytes snapshot() const override;
  bool restore(ByteSpan snapshot, const crypto::Digest& expect) override;

  std::size_t size() const { return data_.size(); }
  /// Direct read access for tests / state comparison.
  const Bytes* lookup(const std::string& key) const {
    auto it = data_.find(key);
    return it == data_.end() ? nullptr : &it->second;
  }

  /// RAII token marking one execution in flight; execute() enters one
  /// itself. snapshot()/state_digest() assert none are live, so a
  /// checkpoint can never hash or copy state mid-mutation (and tests get a
  /// deterministic handle to make the invariant fire).
  class ExecutionScope {
   public:
    explicit ExecutionScope(const KvStore& store) : store_(store) {
      store_.active_execs_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ExecutionScope() {
      store_.active_execs_.fetch_sub(1, std::memory_order_acq_rel);
    }
    ExecutionScope(const ExecutionScope&) = delete;
    ExecutionScope& operator=(const ExecutionScope&) = delete;

   private:
    const KvStore& store_;
  };

 private:
  friend class ExecutionScope;

  crypto::Digest entry_digest(const std::string& key, ByteSpan value) const;
  static void xor_into(crypto::Digest& acc, const crypto::Digest& d);
  void assert_quiescent(const char* op) const;

  const crypto::CryptoProvider& crypto_;
  std::unordered_map<std::string, Bytes> data_;
  crypto::Digest digest_;
  /// Number of execute() calls in flight.
  mutable std::atomic<std::int64_t> active_execs_{0};
};

}  // namespace copbft::app
