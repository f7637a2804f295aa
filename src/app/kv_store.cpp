#include "app/kv_store.hpp"

#include <algorithm>
#include <functional>

#include "common/invariant.hpp"
#include "protocol/wire.hpp"

namespace copbft::app {
namespace {

std::size_t bucket_of(std::string_view key) {
  static_assert((KvStore::kBuckets & (KvStore::kBuckets - 1)) == 0,
                "kBuckets: a power of 2");
  // Equal to std::hash<std::string> of the same characters.
  return std::hash<std::string_view>{}(key) & (KvStore::kBuckets - 1);
}

/// The first entry of a key-sorted bucket whose key is not below `key`.
template <typename Bucket>
auto find_key(Bucket& bucket, std::string_view key) {
  return std::lower_bound(
      bucket.begin(), bucket.end(), key,
      [](const auto& entry, std::string_view k) { return entry.key < k; });
}

std::string_view as_chars(ByteSpan bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

ByteSpan as_bytes(std::string_view chars) {
  return {reinterpret_cast<const Byte*>(chars.data()), chars.size()};
}

}  // namespace

std::optional<KvOpView> KvOpView::parse(ByteSpan payload) {
  protocol::WireReader r(payload);
  KvOpView op;
  op.op = static_cast<KvOpCode>(r.u8());
  op.key = as_chars(r.bytes_view());
  op.value = r.bytes_view();
  if (!r.at_end()) return std::nullopt;
  if (op.op != KvOpCode::kGet && op.op != KvOpCode::kPut &&
      op.op != KvOpCode::kDelete)
    return std::nullopt;
  return op;
}

Bytes KvOp::encode() const {
  Bytes out;
  protocol::WireWriter w(out);
  w.u8(static_cast<std::uint8_t>(op));
  w.bytes(to_bytes(key));
  w.bytes(value);
  return out;
}

std::optional<KvOp> KvOp::decode(ByteSpan payload) {
  const auto view = KvOpView::parse(payload);
  if (!view) return std::nullopt;
  return KvOp{view->op, std::string(view->key),
              Bytes(view->value.begin(), view->value.end())};
}

Bytes KvResult::encode(KvStatus status, ByteSpan value) {
  Bytes out;
  out.reserve(1 + 4 + value.size());
  protocol::WireWriter w(out);
  w.u8(static_cast<std::uint8_t>(status));
  w.bytes(value);
  return out;
}

std::optional<KvResult> KvResult::decode(ByteSpan payload) {
  protocol::WireReader r(payload);
  KvResult res;
  res.status = static_cast<KvStatus>(r.u8());
  res.value = r.bytes();
  if (!r.at_end()) return std::nullopt;
  return res;
}

/// The buckets of one version() and the entry count they hold; the live
/// store never writes to them again.
class KvStore::Version final : public StateVersion {
 public:
  Version(std::vector<std::shared_ptr<const Bucket>> buckets, std::size_t size)
      : buckets_(std::move(buckets)), size_(size) {}

  Bytes encode() const override {
    std::vector<const Entry*> entries;
    entries.reserve(size_);
    std::size_t total = 4;
    for (const auto& bucket : buckets_) {
      for (const Entry& entry : *bucket) {
        entries.push_back(&entry);
        total += 8 + entry.key.size() + entry.value->bytes.size();
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry* a, const Entry* b) { return a->key < b->key; });

    Bytes out;
    out.reserve(total);
    protocol::WireWriter w(out);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const Entry* entry : entries) {
      w.bytes(as_bytes(entry->key));
      w.bytes(entry->value->bytes);
    }
    return out;
  }

 private:
  const std::vector<std::shared_ptr<const Bucket>> buckets_;
  const std::size_t size_;
};

KvStore::KvStore(const crypto::CryptoProvider& crypto)
    : crypto_(crypto), slots_(empty_slots(/*epoch=*/0)) {}

std::vector<KvStore::Slot> KvStore::empty_slots(std::uint64_t epoch) {
  std::vector<Slot> slots(kBuckets);
  for (Slot& slot : slots) slot = Slot{std::make_shared<Bucket>(), epoch};
  return slots;
}

KvStore::Bucket& KvStore::writable(std::size_t index) {
  Slot& slot = slots_[index];
  if (slot.epoch != epoch_) {
    slot.bucket = std::make_shared<Bucket>(*slot.bucket);
    slot.epoch = epoch_;
  }
  return *slot.bucket;
}

const Bytes* KvStore::lookup(const std::string& key) const {
  const Value* value = find(key);
  return value ? &value->bytes : nullptr;
}

const KvStore::Value* KvStore::find(std::string_view key) const {
  const Bucket& bucket = *slots_[bucket_of(key)].bucket;
  auto it = find_key(bucket, key);
  return it == bucket.end() || it->key != key ? nullptr : it->value.get();
}

std::shared_ptr<const KvStore::Value> KvStore::make_value(
    std::string_view key, ByteSpan value) const {
  // The entry's digest covers [key bytes | value bytes]; per thread, the
  // buffer allocates only when an entry outgrows it.
  thread_local Bytes buf;
  buf.clear();
  buf.reserve(8 + key.size() + value.size());
  protocol::WireWriter w(buf);
  w.bytes(as_bytes(key));
  w.bytes(value);
  return std::make_shared<const Value>(
      Value{Bytes(value.begin(), value.end()), crypto_.digest(buf)});
}

void KvStore::xor_into(crypto::Digest& acc, const crypto::Digest& d) {
  for (std::size_t i = 0; i < acc.bytes.size(); ++i)
    acc.bytes[i] ^= d.bytes[i];
}

void KvStore::assert_quiescent(const char* op) const {
  COP_INVARIANT(active_execs_.load(std::memory_order_acquire) == 0,
                "KvStore::%s needs a quiescent point but %lld execute() "
                "calls are in flight",
                op,
                static_cast<long long>(
                    active_execs_.load(std::memory_order_acquire)));
}

crypto::Digest KvStore::state_digest() const {
  assert_quiescent("state_digest");
  return digest_;
}

Bytes KvStore::execute(const protocol::Request& request) {
  ExecutionScope in_flight(*this);
  const auto op = KvOpView::parse(request.payload);
  if (!op) return KvResult::encode(KvStatus::kBadRequest, {});

  const std::size_t index = bucket_of(op->key);
  switch (op->op) {
    case KvOpCode::kGet: {
      const Value* value = find(op->key);
      if (!value) return KvResult::encode(KvStatus::kNotFound, {});
      return KvResult::encode(KvStatus::kOk, value->bytes);
    }
    case KvOpCode::kPut: {
      auto value = make_value(op->key, op->value);
      xor_into(digest_, value->digest);
      Bucket& bucket = writable(index);
      auto it = find_key(bucket, op->key);
      if (it != bucket.end() && it->key == op->key) {
        xor_into(digest_, it->value->digest);
        it->value = std::move(value);
      } else {
        bucket.insert(it, Entry{std::string(op->key), std::move(value)});
        ++size_;
      }
      return KvResult::encode(KvStatus::kOk, {});
    }
    case KvOpCode::kDelete: {
      if (!find(op->key)) return KvResult::encode(KvStatus::kNotFound, {});
      Bucket& bucket = writable(index);
      auto it = find_key(bucket, op->key);
      xor_into(digest_, it->value->digest);
      bucket.erase(it);
      --size_;
      return KvResult::encode(KvStatus::kOk, {});
    }
  }
  return KvResult::encode(KvStatus::kBadRequest, {});
}

std::vector<std::shared_ptr<const KvStore::Bucket>> KvStore::buckets() const {
  std::vector<std::shared_ptr<const Bucket>> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) out.push_back(slot.bucket);
  return out;
}

std::shared_ptr<const StateVersion> KvStore::version() const {
  assert_quiescent("version");
  // Every bucket is shared with the version from here on, so the next
  // write to each must clone it first.
  ++epoch_;
  return std::make_shared<const Version>(buckets(), size_);
}

Bytes KvStore::snapshot() const {
  assert_quiescent("snapshot");
  // Encoded before any later write, so no new epoch is needed.
  return Version(buckets(), size_).encode();
}

bool KvStore::restore(ByteSpan snapshot, const crypto::Digest& expect) {
  assert_quiescent("restore");
  protocol::WireReader r(snapshot);
  std::uint32_t n = r.u32();
  // Each entry occupies >= 8 bytes (two length prefixes); bound allocation.
  if (!r.ok() || r.remaining() / 8 < n) return false;

  std::vector<Entry> entries;
  entries.reserve(n);
  crypto::Digest digest;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string_view key = as_chars(r.bytes_view());
    const ByteSpan value = r.bytes_view();
    if (!r.ok()) return false;
    auto stored = make_value(key, value);
    xor_into(digest, stored->digest);
    entries.push_back(Entry{std::string(key), std::move(stored)});
  }
  if (!r.at_end()) return false;
  // Any order is accepted; sorted, each bucket is built by appends.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < entries.size(); ++i)
    if (entries[i - 1].key == entries[i].key)
      return false;  // duplicate key: not a valid state
  if (digest != expect) return false;

  // No version holds these buckets: they start a fresh epoch, in place.
  std::vector<Slot> slots = empty_slots(epoch_ + 1);
  for (Entry& entry : entries)
    slots[bucket_of(entry.key)].bucket->push_back(std::move(entry));

  slots_ = std::move(slots);
  ++epoch_;
  size_ = n;
  digest_ = digest;
  return true;
}

}  // namespace copbft::app
