#include "crypto/hmac.hpp"

namespace copbft::crypto {

HmacKey::HmacKey(const SymmetricKey& key) {
  // Key is exactly 32 bytes (< 64-byte block), so no pre-hash is needed.
  Byte ipad[64];
  Byte opad[64];
  for (std::size_t i = 0; i < 64; ++i) {
    Byte k = i < key.bytes.size() ? key.bytes[i] : 0;
    ipad[i] = static_cast<Byte>(k ^ 0x36);
    opad[i] = static_cast<Byte>(k ^ 0x5c);
  }

  Sha256 in;
  in.update(ByteSpan{ipad, sizeof ipad});
  inner = in.midstate();

  Sha256 out;
  out.update(ByteSpan{opad, sizeof opad});
  outer = out.midstate();
}

Digest hmac_sha256(const HmacKey& key, ByteSpan data) {
  Sha256 inner(key.inner);
  inner.update(data);
  Digest inner_digest = inner.finish();

  Sha256 outer(key.outer);
  outer.update(inner_digest.span());
  return outer.finish();
}

Digest hmac_sha256(const SymmetricKey& key, ByteSpan data) {
  return hmac_sha256(HmacKey(key), data);
}

Mac hmac_mac(const HmacKey& key, ByteSpan data) {
  Digest full = hmac_sha256(key, data);
  Mac mac;
  std::copy_n(full.bytes.begin(), mac.bytes.size(), mac.bytes.begin());
  return mac;
}

Mac hmac_mac(const SymmetricKey& key, ByteSpan data) {
  return hmac_mac(HmacKey(key), data);
}

bool mac_equal(const Mac& a, const Mac& b) {
  Byte diff = 0;
  for (std::size_t i = 0; i < a.bytes.size(); ++i)
    diff |= static_cast<Byte>(a.bytes[i] ^ b.bytes[i]);
  return diff == 0;
}

}  // namespace copbft::crypto
