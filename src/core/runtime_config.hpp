// Configuration of a threaded replica (any architecture).
#pragma once

#include <cstdint>

#include "protocol/config.hpp"

namespace copbft::core {

using protocol::ReplicaId;

/// Which replicas answer a client (paper §5.4: sparing one reply out of
/// four relieves the network).
enum class ReplyMode : std::uint8_t {
  kAll,
  /// For each request, one deterministically chosen replica stays silent;
  /// clients still obtain f+1 matching replies from the rest.
  kOmitOne,
};

/// TOP: threads authenticating outgoing messages.
/// SMaRt: threads authenticating outgoing messages, and as many verifying
/// incoming messages (out-of-order).
inline constexpr std::uint32_t kAuthThreads = 2;

struct ReplicaRuntimeConfig {
  protocol::ProtocolConfig protocol;

  /// COP pillars per replica (ignored by TOP/SMaRt replicas, which have a
  /// single protocol-logic thread). Must equal protocol.num_pillars.
  std::uint32_t num_pillars = 1;

  ReplyMode reply_mode = ReplyMode::kAll;

  /// Queue capacity for every inter-stage queue.
  std::size_t queue_capacity = 8192;

  /// Execution stage: how long the total order may stall on a missing
  /// sequence number before asking pillars to fill the gap with no-ops.
  std::uint64_t gap_timeout_us = 2'000;

  /// State transfer (laggard recovery): how long to wait for a usable
  /// checkpoint before re-requesting from all peers.
  std::uint64_t state_transfer_timeout_us = 500'000;

  /// Chunk size of snapshot delivery in StateReply frames.
  std::size_t state_chunk_bytes = 64 * 1024;

  ReplicaId omitted_replier(std::uint64_t request_key) const {
    return static_cast<ReplicaId>(request_key % protocol.num_replicas);
  }
};

}  // namespace copbft::core
