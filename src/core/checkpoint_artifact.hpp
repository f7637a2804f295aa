// The unit of checkpoint-based state transfer.
//
// At every checkpoint boundary the execution stage digests not just the
// service state but everything a laggard needs to resume as if it had
// executed the prefix itself: the service state *and* the exactly-once
// bookkeeping (per-client dedup windows + cached replies). Without the
// latter, a restored replica would re-execute client retransmissions that
// the rest of the cluster suppresses, and its state would diverge.
//
// The cluster agrees on composite_digest(); the service snapshot itself is
// verified transitively — Service::restore() only succeeds if the restored
// state's digest equals `service_digest`, which the composite covers.
//
// The execution stage does not encode artifacts: it hands the
// state-transfer manager a CheckpointHandOff, whose service state is a
// Service::version(), and the manager encodes it when a peer asks.
#pragma once

#include <memory>
#include <optional>

#include "app/service.hpp"
#include "common/bytes.hpp"
#include "crypto/provider.hpp"

namespace copbft::core {

struct CheckpointArtifact {
  /// Canonical encoding of the execution stage's client bookkeeping.
  Bytes client_table;
  /// Service::state_digest() at the checkpoint.
  crypto::Digest service_digest;
  /// Service::snapshot() at the checkpoint.
  Bytes service_snapshot;

  Bytes encode() const;
  /// nullopt on any malformed input (never reads out of bounds).
  static std::optional<CheckpointArtifact> decode(ByteSpan data);

  crypto::Digest composite_digest(const crypto::CryptoProvider& crypto) const {
    return checkpoint_digest(crypto, client_table, service_digest);
  }

  /// The cluster-agreed checkpoint digest: covers the client table and the
  /// service-state digest. Computable without materializing a snapshot, so
  /// replicas that never serve transfers (TOP/SMaRt baselines) pay nothing
  /// beyond hashing the client table.
  static crypto::Digest checkpoint_digest(const crypto::CryptoProvider& crypto,
                                          ByteSpan client_table,
                                          const crypto::Digest& service_digest);
};

/// A checkpoint as the execution stage hands it over: the artifact's
/// parts, with the service state still an unencoded version.
struct CheckpointHandOff {
  Bytes client_table;
  crypto::Digest service_digest;
  std::shared_ptr<const app::StateVersion> service_state;

  /// The CheckpointArtifact bytes, with service_state->encode() as the
  /// snapshot. Any thread; the cost is the service state's size.
  Bytes encode() const {
    return CheckpointArtifact{client_table, service_digest,
                              service_state->encode()}
        .encode();
  }
};

}  // namespace copbft::core
