#include "core/outbound.hpp"

#include "common/hot.hpp"
#include "protocol/wire.hpp"

namespace copbft::core {

COP_HOT Bytes seal_message(protocol::Message& msg,
                   const crypto::CryptoProvider& crypto,
                   crypto::KeyNodeId self,
                   const std::vector<crypto::KeyNodeId>& recipients) {
  Bytes frame = protocol::encode_authenticated_part(msg, recipients.size());
  auto auth = crypto::Authenticator::build(crypto, self, recipients,
                                           ByteSpan{frame});
  protocol::authenticator_of(msg) = auth;
  protocol::WireWriter w(frame);
  w.authenticator(auth);
  return frame;
}

COP_HOT Bytes seal_vote_bundle(
    const std::vector<protocol::Message>& votes,
    const crypto::CryptoProvider& crypto, protocol::ReplicaId self,
    const std::vector<crypto::KeyNodeId>& recipients) {
  Bytes frame;
  frame.reserve(protocol::vote_bundle_size(votes, recipients.size()));
  protocol::write_vote_bundle(frame, self, votes);
  protocol::WireWriter(frame).authenticator(crypto::Authenticator::build(
      crypto, protocol::replica_node(self), recipients, ByteSpan{frame}));
  return frame;
}

std::vector<crypto::KeyNodeId> other_replicas(std::uint32_t num_replicas,
                                              protocol::ReplicaId self) {
  std::vector<crypto::KeyNodeId> out;
  out.reserve(num_replicas - 1);
  for (std::uint32_t r = 0; r < num_replicas; ++r)
    if (r != self) out.push_back(protocol::replica_node(r));
  return out;
}

}  // namespace copbft::core
