// COP replica: NP self-contained pillars + one execution stage (paper §4).
//
// Each pillar runs client management, the full protocol logic for its
// sequence slice, in-place cryptography and private lanes to its peers.
// The execution stage re-serializes the total order; checkpoints are
// agreed by one pillar and propagated to the others.
#pragma once

#include <vector>

#include "core/pillar.hpp"
#include "core/replica.hpp"
#include "core/state_transfer.hpp"

namespace copbft::core {

class CopReplica final : public Replica {
 public:
  /// `config.num_pillars` pillars are created; the transport must route
  /// lane p to pillar p on every replica. `service` is executed in the
  /// execution stage and consulted for offloaded pre-validation in the
  /// pillars.
  CopReplica(ReplicaId self, ReplicaRuntimeConfig config,
             std::unique_ptr<app::Service> service,
             const crypto::CryptoProvider& crypto,
             transport::Transport& transport);

  void start() override;
  void stop() override;
  ReplicaStats stats() const override;
  ReplicaId id() const override { return self_; }

  const app::Service& service() const { return *service_; }
  const Pillar& pillar(std::uint32_t p) const { return *pillars_[p]; }

 private:
  const ReplicaId self_;
  const ReplicaRuntimeConfig config_;
  std::unique_ptr<app::Service> service_;
  transport::Transport& transport_;
  InPlaceOutbound outbound_;
  ExecutionStage exec_;
  std::shared_ptr<StateTransferManager> state_;
  std::vector<std::shared_ptr<Pillar>> pillars_;
  bool stopped_ = false;
};

}  // namespace copbft::core
