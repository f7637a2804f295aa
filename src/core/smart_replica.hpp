// BFT-SMaRt-like baseline replica (paper §5 "BFT-SMaRt").
//
// Architecture, following the paper's characterization:
//   * single-instance protocol logic — one consensus at a time; throughput
//     scales only through batching (§3.2, §5.1);
//   * out-of-order verification — a pool of worker threads fully verifies
//     *every* incoming message (including redundant votes) before the
//     logic sees it;
//   * outgoing authentication in the worker pool as well.
// The paper's '*' variant, one lane per network adapter used alternately
// (§5 "The Subjects"), exists only in the simulator
// (sim::SimArch::kSmartStar).
#pragma once

#include <atomic>

#include "core/pillar.hpp"
#include "core/replica.hpp"

namespace copbft::core {

class SmartReplica final : public Replica {
 public:
  /// The caller must set config.protocol.max_active_proposals = 1.
  SmartReplica(ReplicaId self, ReplicaRuntimeConfig config,
               std::unique_ptr<app::Service> service,
               const crypto::CryptoProvider& crypto,
               transport::Transport& transport);

  void start() override;
  void stop() override;
  ReplicaStats stats() const override;
  ReplicaId id() const override { return self_; }

  /// Verifications performed by the out-of-order pool (for comparing
  /// against COP/TOP's in-order counts).
  std::uint64_t pool_verifications() const {
    return pool_verifications_.load(std::memory_order_relaxed);
  }

 private:
  /// Out-of-order verification pool: each of kAuthThreads workers decodes
  /// and fully authenticates frames, needed or not.
  void run_verifier();

  const ReplicaId self_;
  const ReplicaRuntimeConfig config_;
  std::unique_ptr<app::Service> service_;
  protocol::CryptoVerifier pool_verifier_;
  AuthPoolOutbound auth_pool_;
  ExecutionStage exec_;
  std::shared_ptr<Pillar> logic_;
  /// The verification pool's input, registered as the lane-0 sink.
  /// Admission never blocks: a full pool answers kBusy, so it cannot park
  /// an event-loop lane.
  std::shared_ptr<transport::Inbox> verify_inbox_;
  std::atomic<std::uint64_t> pool_verifications_{0};
  bool stopped_ = false;
  std::vector<std::jthread> verifiers_;
};

}  // namespace copbft::core
