// TOP replica: the contemporary task-oriented, pipelined architecture the
// paper uses as its primary baseline (paper §3.1, evaluated as "TOP").
//
// Pipeline stages, each in its own thread(s):
//   ingress (client management: decode frames, verify client MACs)
//     -> protocol logic (one thread, multi-instance, in-order verification)
//     -> authentication pool (outgoing MACs) -> network
//     -> execution stage.
//
// The protocol logic and execution code are byte-identical with COP
// (shared Pillar / PbftCore / ExecutionStage); only the thread structure
// differs — the paper's same-code-base comparison.
#pragma once

#include "core/pillar.hpp"
#include "core/replica.hpp"

namespace copbft::core {

class TopReplica final : public Replica {
 public:
  /// `config.num_pillars` must be 1.
  TopReplica(ReplicaId self, ReplicaRuntimeConfig config,
             std::unique_ptr<app::Service> service,
             const crypto::CryptoProvider& crypto,
             transport::Transport& transport);

  void start() override;
  void stop() override;
  ReplicaStats stats() const override;
  ReplicaId id() const override { return self_; }

 private:
  /// Client-management stage: decodes every frame and verifies client
  /// request MACs before the logic thread sees them. Protocol messages
  /// pass through un-verified (in-order verification happens in the
  /// logic, §3.2).
  void run_ingress();

  const ReplicaId self_;
  const ReplicaRuntimeConfig config_;
  std::unique_ptr<app::Service> service_;
  protocol::CryptoVerifier ingress_verifier_;
  AuthPoolOutbound outbound_;
  ExecutionStage exec_;
  std::shared_ptr<Pillar> logic_;
  /// The ingress stage's input, registered as the lane-0 sink. Admission
  /// never blocks: a full stage answers kBusy, so it cannot park an
  /// event-loop lane.
  std::shared_ptr<transport::Inbox> ingress_;
  bool stopped_ = false;
  std::jthread ingress_thread_;
};

}  // namespace copbft::core
