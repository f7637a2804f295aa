// Where outgoing protocol messages get authenticated and sent.
//
//  * InPlaceOutbound — the calling thread seals and sends immediately.
//    COP pillars use this: cryptographic operations are performed in place
//    when required; parallelism comes from multiplying whole pillars
//    (paper §4.1 "Conciliated Decisions").
//  * AuthPoolOutbound — work is handed to dedicated authentication
//    threads, the task-oriented approach of TOP/BFT-SMaRt (paper §3).
#pragma once

#include <vector>

#include "common/queue.hpp"
#include "common/threading.hpp"
#include "core/outbound.hpp"
#include "core/runtime_config.hpp"
#include "transport/transport.hpp"

namespace copbft::core {

class OutboundSink {
 public:
  virtual ~OutboundSink() = default;

  virtual void broadcast(protocol::Message msg, transport::LaneId lane) = 0;
  virtual void send_to(ReplicaId to, protocol::Message msg,
                       transport::LaneId lane) = 0;
  virtual void stop() {}
};

class InPlaceOutbound final : public OutboundSink {
 public:
  InPlaceOutbound(ReplicaId self, std::uint32_t num_replicas,
                  const crypto::CryptoProvider& crypto,
                  transport::Transport& transport)
      : self_(self),
        crypto_(crypto),
        transport_(transport),
        peers_(other_replicas(num_replicas, self)) {}

  void broadcast(protocol::Message msg, transport::LaneId lane) override {
    Bytes frame = seal_message(msg, crypto_, protocol::replica_node(self_),
                               peers_);
    for (crypto::KeyNodeId peer : peers_) transport_.send(peer, lane, frame);
  }

  void send_to(ReplicaId to, protocol::Message msg,
               transport::LaneId lane) override {
    Bytes frame = seal_message(msg, crypto_, protocol::replica_node(self_),
                               {protocol::replica_node(to)});
    transport_.send(protocol::replica_node(to), lane, std::move(frame));
  }

 private:
  const ReplicaId self_;
  const crypto::CryptoProvider& crypto_;
  transport::Transport& transport_;
  const std::vector<crypto::KeyNodeId> peers_;
};

/// Fan-out through a pool of authentication threads (TOP / SMaRt). Each
/// worker seals and sends through an InPlaceOutbound, so frames are the
/// same bytes either way.
class AuthPoolOutbound final : public OutboundSink {
 public:
  AuthPoolOutbound(ReplicaId self, std::uint32_t num_replicas,
                   const crypto::CryptoProvider& crypto,
                   transport::Transport& transport, std::uint32_t threads,
                   std::size_t queue_capacity);
  ~AuthPoolOutbound() override { stop(); }

  void broadcast(protocol::Message msg, transport::LaneId lane) override;
  void send_to(ReplicaId to, protocol::Message msg,
               transport::LaneId lane) override;
  void stop() override;

 private:
  struct Work {
    protocol::Message msg;
    transport::LaneId lane = 0;
    bool broadcast = false;
    ReplicaId to = 0;
  };

  void worker();

  InPlaceOutbound sealer_;
  BoundedQueue<Work> queue_;
  std::vector<std::jthread> threads_;
};

}  // namespace copbft::core
