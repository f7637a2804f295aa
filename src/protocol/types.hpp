// Vocabulary types of the replication protocol.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "crypto/key_store.hpp"

namespace copbft::protocol {

using ReplicaId = std::uint32_t;
using ClientId = std::uint32_t;
using SeqNum = std::uint64_t;
using ViewId = std::uint64_t;
/// Per-client monotonically increasing request identifier.
using RequestId = std::uint64_t;

/// Replicas occupy node ids [0, kClientIdBase); clients start at
/// kClientIdBase. Both live in the same key/identity namespace.
constexpr crypto::KeyNodeId kClientIdBase = 1000;

/// Sentinel for "sender not derivable from the message alone".
constexpr crypto::KeyNodeId kUnknownNode = ~crypto::KeyNodeId{0};

inline crypto::KeyNodeId replica_node(ReplicaId r) { return r; }
inline crypto::KeyNodeId client_node(ClientId c) { return c; }
inline bool is_client_node(crypto::KeyNodeId n) { return n >= kClientIdBase; }

/// Unique 64-bit key for a (client, request-id) pair. Request ids are
/// bounded by the clients' windows in practice; 40 bits of id space is
/// plenty for any run while keeping the key a single word.
inline std::uint64_t request_key(ClientId client, RequestId id) {
  return (std::uint64_t{client} << 40) | (id & ((1ULL << 40) - 1));
}

/// A set of replica ids below kCapacity in one word: a vote set that never
/// allocates. ProtocolConfig::validate keeps every group within it.
class ReplicaSet {
 public:
  static constexpr std::uint32_t kCapacity = 64;

  /// Precondition: r < kCapacity. Inserting a member again changes nothing.
  void insert(ReplicaId r) { bits_ |= std::uint64_t{1} << r; }
  bool contains(ReplicaId r) const {
    return r < kCapacity && ((bits_ >> r) & 1) != 0;
  }
  std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  void clear() { bits_ = 0; }

 private:
  std::uint64_t bits_ = 0;
};

/// How leadership is assigned to consensus instances (paper §4.3.2).
enum class LeaderScheme : std::uint8_t {
  /// Classic PBFT: the view determines one leader for every instance.
  kFixed,
  /// Block-wise rotation compatible with pillar partitioning:
  /// l(c) = (c / NP + view) mod N.
  kRotating,
};

/// A partition of the sequence-number space: seq numbers congruent to
/// `offset` modulo `stride`. A COP pillar owns one slice; TOP/SMaRt
/// replicas own the trivial slice {0, 1}.
struct SeqSlice {
  SeqNum offset = 0;
  SeqNum stride = 1;

  bool contains(SeqNum seq) const { return seq % stride == offset; }

  /// i-th sequence number of the slice: c(p, i) = p + i * NP.
  SeqNum at(SeqNum i) const { return offset + i * stride; }

  /// Smallest slice member >= seq.
  SeqNum next_at_or_after(SeqNum seq) const {
    if (seq <= offset) return offset;
    SeqNum delta = seq - offset;
    SeqNum i = (delta + stride - 1) / stride;
    return offset + i * stride;
  }
};

}  // namespace copbft::protocol
