// Replicated key-value store service.
//
// Operation encoding (see KvOp helpers):
//   request : [op u8 | key bytes | value bytes]
//   reply   : [status u8 | value bytes]
//
// The state digest is the XOR of one digest per live entry: it does not
// depend on insertion or iteration order, and each mutation updates it in
// O(1).
//
// The state is kBuckets copy-on-write buckets, each mapping key -> shared
// immutable value. version() copies the bucket pointers, O(buckets), and
// starts a new epoch. The first write to a bucket stamped with an older
// epoch clones the bucket's pointers (never the values) and stamps the
// clone; later writes in the same epoch go in place. A version therefore
// keeps the values that were live when it was taken, and the store and
// all held versions together cost the live state plus what was replaced
// since the oldest version.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

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
  /// Copy-on-write granularity. version() costs one pointer copy per
  /// bucket; the first put into a bucket after it clones the bucket's
  /// ~size/kBuckets pointers. Chosen with bench/micro_exec's checkpoint
  /// cell (docs/performance.md, "Change 10").
  static constexpr std::size_t kBuckets = 1024;

  explicit KvStore(const crypto::CryptoProvider& crypto);

  Bytes execute(const protocol::Request& request) override;
  /// Quiescent-point only (asserted): must not run while an execute() is
  /// in flight.
  crypto::Digest state_digest() const override;
  bool pre_validate(const protocol::Request& request) override {
    return KvOp::decode(request.payload).has_value();
  }
  /// Canonical (sorted-by-key) encoding: [n u32 | (key bytes, value
  /// bytes) * n]. Sorting is for reproducibility only — the XOR digest is
  /// order-independent, so verification does not depend on it. Equal to
  /// version()->encode(). Quiescent-point only (asserted).
  Bytes snapshot() const override;
  /// O(buckets): shares every bucket with the live store. Quiescent-point
  /// only (asserted).
  std::shared_ptr<const StateVersion> version() const override;
  /// Atomic: parses into fresh buckets and swaps them in only on success,
  /// in a fresh epoch (no version holds them, so writes go in place).
  bool restore(ByteSpan snapshot, const crypto::Digest& expect) override;

  std::size_t size() const { return size_; }
  /// Direct read access for tests / state comparison.
  const Bytes* lookup(const std::string& key) const;

  /// RAII token marking one execution in flight; execute() enters one
  /// itself. snapshot()/version()/state_digest() assert none are live, so
  /// a checkpoint can never hash or share state mid-mutation (and tests
  /// get a deterministic handle to make the invariant fire).
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
  class Version;

  struct Entry {
    std::string key;
    std::shared_ptr<const Bytes> value;
  };
  /// Entries sorted by key: a clone is one contiguous copy, and a lookup
  /// binary-searches one array.
  using Bucket = std::vector<Entry>;
  /// A live bucket and the epoch it was created in. It is written in place
  /// only while that epoch is current: then no version() can hold it.
  struct Slot {
    std::shared_ptr<Bucket> bucket;
    std::uint64_t epoch = 0;
  };

  static std::vector<Slot> empty_slots(std::uint64_t epoch);
  /// The bucket at `index`, cloned first if a version may share it. The
  /// epoch decides, never use_count(): that is a relaxed load, so it would
  /// not order this write after another thread's last read of the bucket.
  Bucket& writable(std::size_t index);
  std::vector<std::shared_ptr<const Bucket>> buckets() const;
  crypto::Digest entry_digest(const std::string& key, ByteSpan value) const;
  static void xor_into(crypto::Digest& acc, const crypto::Digest& d);
  void assert_quiescent(const char* op) const;

  const crypto::CryptoProvider& crypto_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  /// Advanced by version() on the execution thread: taking a version
  /// changes no state, only which buckets the next writes must clone.
  mutable std::uint64_t epoch_ = 0;
  crypto::Digest digest_;
  /// Number of execute() calls in flight.
  mutable std::atomic<std::int64_t> active_execs_{0};
};

}  // namespace copbft::app
