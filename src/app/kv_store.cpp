#include "app/kv_store.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "protocol/wire.hpp"

namespace copbft::app {

Bytes KvOp::encode() const {
  Bytes out;
  protocol::WireWriter w(out);
  w.u8(static_cast<std::uint8_t>(op));
  w.bytes(to_bytes(key));
  w.bytes(value);
  return out;
}

std::optional<KvOp> KvOp::decode(ByteSpan payload) {
  protocol::WireReader r(payload);
  KvOp op;
  op.op = static_cast<KvOpCode>(r.u8());
  op.key = to_string(r.bytes());
  op.value = r.bytes();
  if (!r.at_end()) return std::nullopt;
  if (op.op != KvOpCode::kGet && op.op != KvOpCode::kPut &&
      op.op != KvOpCode::kDelete)
    return std::nullopt;
  return op;
}

Bytes KvResult::encode() const {
  Bytes out;
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

crypto::Digest KvStore::entry_digest(const std::string& key,
                                     ByteSpan value) const {
  Bytes buf;
  protocol::WireWriter w(buf);
  w.bytes(to_bytes(key));
  w.bytes(value);
  return crypto_.digest(buf);
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
  auto op = KvOp::decode(request.payload);
  if (!op) return KvResult{KvStatus::kBadRequest, {}}.encode();

  switch (op->op) {
    case KvOpCode::kGet: {
      auto it = data_.find(op->key);
      if (it == data_.end()) return KvResult{KvStatus::kNotFound, {}}.encode();
      return KvResult{KvStatus::kOk, it->second}.encode();
    }
    case KvOpCode::kPut: {
      auto it = data_.find(op->key);
      if (it != data_.end()) {
        xor_into(digest_, entry_digest(op->key, it->second));
        it->second = op->value;
      } else {
        data_.emplace(op->key, op->value);
      }
      xor_into(digest_, entry_digest(op->key, op->value));
      return KvResult{KvStatus::kOk, {}}.encode();
    }
    case KvOpCode::kDelete: {
      auto it = data_.find(op->key);
      if (it == data_.end()) return KvResult{KvStatus::kNotFound, {}}.encode();
      xor_into(digest_, entry_digest(op->key, it->second));
      data_.erase(it);
      return KvResult{KvStatus::kOk, {}}.encode();
    }
  }
  return KvResult{KvStatus::kBadRequest, {}}.encode();
}

Bytes KvStore::snapshot() const {
  assert_quiescent("snapshot");
  std::vector<const std::pair<const std::string, Bytes>*> entries;
  entries.reserve(data_.size());
  for (const auto& entry : data_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  Bytes out;
  protocol::WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto* entry : entries) {
    w.bytes(to_bytes(entry->first));
    w.bytes(entry->second);
  }
  return out;
}

bool KvStore::restore(ByteSpan snapshot, const crypto::Digest& expect) {
  assert_quiescent("restore");
  protocol::WireReader r(snapshot);
  std::uint32_t n = r.u32();
  // Each entry occupies >= 8 bytes (two length prefixes); bound allocation.
  if (!r.ok() || r.remaining() / 8 < n) return false;

  std::unordered_map<std::string, Bytes> data;
  crypto::Digest digest;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = to_string(r.bytes());
    Bytes value = r.bytes();
    if (!r.ok()) return false;
    auto [it, inserted] = data.emplace(std::move(key), std::move(value));
    if (!inserted) return false;  // duplicate key: not a valid state
    xor_into(digest, entry_digest(it->first, it->second));
  }
  if (!r.at_end()) return false;
  if (digest != expect) return false;

  data_ = std::move(data);
  digest_ = digest;
  return true;
}

}  // namespace copbft::app
