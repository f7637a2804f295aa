// Outgoing message sealing: serialize the authenticated part, compute the
// per-recipient MAC vector, and produce the final frame.
//
// Kept separate from the protocol core because *where* this work runs is an
// architectural choice: COP pillars seal in place, TOP offloads it to
// authentication threads (paper §3.1/§4.1).
#pragma once

#include <vector>

#include "crypto/provider.hpp"
#include "protocol/messages.hpp"

namespace copbft::core {

/// Seals `msg` for `recipients`: fills msg.auth and returns the full frame.
Bytes seal_message(protocol::Message& msg, const crypto::CryptoProvider& crypto,
                   crypto::KeyNodeId self,
                   const std::vector<crypto::KeyNodeId>& recipients);

/// Seals `votes` from replica `self` for `recipients` as one bundle frame
/// with one authenticator (protocol::write_vote_bundle), encoded into one
/// buffer sized once.
Bytes seal_vote_bundle(const std::vector<protocol::Message>& votes,
                       const crypto::CryptoProvider& crypto,
                       protocol::ReplicaId self,
                       const std::vector<crypto::KeyNodeId>& recipients);

/// Node ids of all replicas except `self`.
std::vector<crypto::KeyNodeId> other_replicas(std::uint32_t num_replicas,
                                              protocol::ReplicaId self);

}  // namespace copbft::core
