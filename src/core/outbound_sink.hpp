// Where outgoing protocol messages get authenticated and sent.
//
//  * InPlaceOutbound — the calling thread seals and sends immediately.
//    COP pillars use this: cryptographic operations are performed in place
//    when required; parallelism comes from multiplying whole pillars
//    (paper §4.1 "Conciliated Decisions").
//  * AuthPoolOutbound — work is handed to dedicated authentication
//    threads, the task-oriented approach of TOP/BFT-SMaRt (paper §3).
//
// A broadcast carries the votes of one round (RoundOutbox): one vote
// leaves as its own frame, two or more as one bundle frame with one
// authenticator.
#pragma once

#include <variant>
#include <vector>

#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/threading.hpp"
#include "core/outbound.hpp"
#include "core/runtime_config.hpp"
#include "transport/transport.hpp"

namespace copbft::core {

class OutboundSink {
 public:
  virtual ~OutboundSink() = default;

  /// Sends `msgs` to every peer: a single message as its own frame, two
  /// or more votes as one bundle. A sink may take the vector itself
  /// (AuthPoolOutbound queues it), so the caller clears it before reuse.
  virtual void broadcast(std::vector<protocol::Message>&& msgs,
                         transport::LaneId lane) = 0;
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

  void broadcast(std::vector<protocol::Message>&& msgs,
                 transport::LaneId lane) override {
    if (msgs.empty()) return;
    Bytes frame = msgs.size() == 1
                      ? seal_message(msgs.front(), crypto_,
                                     protocol::replica_node(self_), peers_)
                      : seal_vote_bundle(msgs, crypto_, self_, peers_);
    for (std::size_t i = 0; i + 1 < peers_.size(); ++i)
      transport_.send(peers_[i], lane, frame);
    transport_.send(peers_.back(), lane, std::move(frame));
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

  void broadcast(std::vector<protocol::Message>&& msgs,
                 transport::LaneId lane) override;
  void send_to(ReplicaId to, protocol::Message msg,
               transport::LaneId lane) override;
  void stop() override;

 private:
  struct Work {
    /// A broadcast's messages, or the one message of a send_to.
    std::variant<std::vector<protocol::Message>, protocol::Message> msgs;
    transport::LaneId lane = 0;
    ReplicaId to = 0;
  };

  void worker();

  InPlaceOutbound sealer_;
  BoundedQueue<Work> queue_;
  std::vector<std::jthread> threads_;
};

/// The messages a pillar's core emits during one round, sent in emission
/// order. Votes (Prepare, Commit and Checkpoint broadcasts) are held and
/// leave together when the round ends; any other send first sends the
/// votes held before it, so every connection carries frames in the order
/// the core emitted them.
class RoundOutbox {
 public:
  /// `votes_sent` counts every vote broadcast, `bundles_sent` the rounds
  /// that sent two or more votes as a bundle, `votes_bundled` the votes
  /// those bundles carried.
  RoundOutbox(OutboundSink& sink, transport::LaneId lane,
              metrics::Counter& votes_sent, metrics::Counter& bundles_sent,
              metrics::Counter& votes_bundled)
      : sink_(sink),
        lane_(lane),
        votes_sent_(votes_sent),
        bundles_sent_(bundles_sent),
        votes_bundled_(votes_bundled) {}

  void broadcast(protocol::Message msg) {
    if (protocol::is_vote(msg)) {
      votes_sent_.add();
      votes_.push_back(std::move(msg));
      return;
    }
    // Anything but a vote leaves at once, alone, after the votes before it.
    flush();
    votes_.push_back(std::move(msg));
    flush();
  }

  void send_to(ReplicaId to, protocol::Message msg) {
    flush();
    sink_.send_to(to, std::move(msg), lane_);
  }

  /// Ends the round: broadcasts the held votes.
  void flush() {
    if (votes_.empty()) return;
    if (votes_.size() > 1) {
      bundles_sent_.add();
      votes_bundled_.add(votes_.size());
    }
    sink_.broadcast(std::move(votes_), lane_);
    votes_.clear();
  }

 private:
  OutboundSink& sink_;
  const transport::LaneId lane_;
  metrics::Counter& votes_sent_;
  metrics::Counter& bundles_sent_;
  metrics::Counter& votes_bundled_;
  std::vector<protocol::Message> votes_;
};

}  // namespace copbft::core
