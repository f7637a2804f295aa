#include "core/cop_replica.hpp"

namespace copbft::core {

CopReplica::CopReplica(ReplicaId self, ReplicaRuntimeConfig config,
                       std::unique_ptr<app::Service> service,
                       const crypto::CryptoProvider& crypto,
                       transport::Transport& transport)
    : self_(self),
      config_(std::move(config)),
      service_(std::move(service)),
      transport_(transport),
      outbound_(self, config_.protocol.num_replicas, crypto, transport),
      exec_(self, config_, *service_, crypto, transport) {
  // Laggard recovery: the manager serves the artifacts the execution
  // stage produces and, when a pillar reports being stranded, fetches and
  // installs a peer checkpoint, then slides every pillar's window to it.
  state_ = std::make_shared<StateTransferManager>(
      self_, config_, crypto, transport_, exec_,
      [this](protocol::SeqNum seq, const crypto::Digest& digest,
             protocol::SeqNum fetch_upto) {
        for (auto& pillar : pillars_) {
          pillar->post_command(NoteStable{seq, digest});
          pillar->post_command(FetchMissing{fetch_upto});
        }
      });
  exec_.set_snapshot_fn([this](protocol::SeqNum seq,
                               const crypto::Digest& digest, Bytes artifact) {
    state_->store_checkpoint(seq, digest, std::move(artifact));
  });
  transport_.register_sink(state_->lane(), state_);

  // Checkpoint stability found by one pillar is fanned out to siblings so
  // all of them can truncate logs and stay within the drift bound; the
  // transfer manager learns it to mark held artifacts servable.
  auto on_stable = [this](protocol::SeqNum seq, const crypto::Digest& digest,
                          const std::vector<protocol::ReplicaId>& voters,
                          std::uint32_t origin) {
    for (std::uint32_t q = 0; q < pillars_.size(); ++q) {
      if (q != origin) pillars_[q]->post_command(NoteStable{seq, digest});
    }
    state_->note_stable(seq, digest, voters);
  };

  pillars_.reserve(config_.num_pillars);
  for (std::uint32_t p = 0; p < config_.num_pillars; ++p) {
    pillars_.push_back(std::make_shared<Pillar>(self_, p, config_, crypto,
                                                exec_, outbound_,
                                                service_.get(), on_stable));
    pillars_.back()->set_catch_up_hint(
        [this](protocol::SeqNum observed) { state_->note_peer_ahead(observed); });
    transport_.register_sink(p, pillars_.back());
  }
}

void CopReplica::start() {
  exec_.start();
  state_->start();
  for (auto& pillar : pillars_) pillar->start();
}

void CopReplica::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& pillar : pillars_) pillar->stop();
  state_->stop();
  exec_.stop();
}

ReplicaStats CopReplica::stats() const {
  ReplicaStats out;
  out.exec = exec_.stats();
  for (const auto& pillar : pillars_) out.core += pillar->core_stats();
  return out;
}

}  // namespace copbft::core
