// Replicated key-value store service.
//
// Operation encoding (see KvOp helpers):
//   request : [op u8 | key bytes | value bytes]
//   reply   : [status u8 | value bytes]
//
// The state digest is the XOR of one digest per live entry: it does not
// depend on insertion or iteration order, and each mutation updates it in
// O(1). Each value is stored with its entry's digest, so a put or delete
// XORs the replaced entry out without hashing it again.
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
#include <string_view>
#include <vector>

#include "app/service.hpp"

namespace copbft::app {

enum class KvOpCode : std::uint8_t { kGet = 1, kPut = 2, kDelete = 3 };
enum class KvStatus : std::uint8_t { kOk = 0, kNotFound = 1, kBadRequest = 2 };

/// A well-formed request payload's fields, viewed in place: valid while
/// the payload is.
struct KvOpView {
  KvOpCode op = KvOpCode::kGet;
  std::string_view key;
  ByteSpan value;

  static std::optional<KvOpView> parse(ByteSpan payload);
};

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

  Bytes encode() const { return encode(status, value); }
  /// A reply's bytes, in one buffer sized once.
  static Bytes encode(KvStatus status, ByteSpan value);
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
    return KvOpView::parse(request.payload).has_value();
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

  /// A stored value and the digest of its entry (key and value).
  struct Value {
    Bytes bytes;
    crypto::Digest digest;
  };
  struct Entry {
    std::string key;
    std::shared_ptr<const Value> value;
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
  const Value* find(std::string_view key) const;
  /// A value for `key`, its bytes copied from `value` once, with its
  /// entry digest.
  std::shared_ptr<const Value> make_value(std::string_view key,
                                          ByteSpan value) const;
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
