// Protocol-logic unit: one thread driving one PbftCore.
//
// For COP this is a *pillar* (paper §4.1): it owns a slice of the sequence
// space, verifies in order and seals in place, and talks to peers over its
// private lane. The same class, instantiated once with the trivial slice
// and an AuthPoolOutbound, is the logic stage of the TOP and SMaRt
// pipelines — the paper's "same code base" methodology in code.
#pragma once

#include <functional>

#include "app/service.hpp"
#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/threading.hpp"
#include "core/events.hpp"
#include "core/execution_stage.hpp"
#include "core/outbound_sink.hpp"
#include "protocol/pbft_core.hpp"

namespace copbft::core {

class Pillar final : public transport::FrameSink {
 public:
  /// Propagates checkpoint stability from the owning pillar to siblings
  /// (paper §4.2.2); no-op for single-pillar replicas. `voters` are the
  /// replicas whose matching votes formed the certificate.
  using StableFn = std::function<void(
      protocol::SeqNum, const crypto::Digest&,
      const std::vector<protocol::ReplicaId>& voters, std::uint32_t origin)>;
  /// The core detected it is stranded past the peers' log truncation;
  /// the host should run a checkpoint-based state transfer.
  using CatchUpFn = std::function<void(protocol::SeqNum observed)>;

  Pillar(ReplicaId self, std::uint32_t index,
         const ReplicaRuntimeConfig& config,
         const crypto::CryptoProvider& crypto, ExecutionStage& exec,
         OutboundSink& outbound, app::Service* service, StableFn on_stable);

  void start();
  void stop();

  /// Install before start(); unset means state-transfer hints are dropped
  /// (TOP/SMaRt baselines and hosts without a transfer manager).
  void set_catch_up_hint(CatchUpFn fn) { on_catch_up_ = std::move(fn); }

  // FrameSink: called by the transport for this pillar's lane.
  bool deliver(transport::ReceivedFrame frame) override {
    return queue_.push(PillarEvent{std::move(frame)});
  }
  /// Non-blocking admission for the event-loop transport: a full queue is
  /// kBusy (the loop queues or sheds at ingress), never a blocked loop
  /// thread. count_blocked=false — the blocked_pushes counter means "a
  /// stage thread stalled", and an admission probe is not that.
  transport::Admit try_deliver(transport::ReceivedFrame& frame) override {
    PillarEvent event{std::move(frame)};
    if (queue_.try_push_ref(event, /*count_blocked=*/false))
      return transport::Admit::kAdmitted;
    frame = std::move(std::get<transport::ReceivedFrame>(event));
    return queue_.closed() ? transport::Admit::kClosed
                           : transport::Admit::kBusy;
  }
  void close() override { queue_.close(); }

  /// Prepared messages from upstream pipeline stages.
  bool post(PillarEvent event) { return queue_.push(std::move(event)); }

  /// Commands from sibling pillars and the state-transfer manager. Uses a
  /// separate queue with ample headroom so a poster never blocks on a
  /// pillar whose main queue is full. A push does not wake a parked
  /// pillar: it drains commands at its next frame or 1 ms heartbeat.
  bool post_command(PillarCommand command) {
    return commands_.push(std::move(command));
  }

  std::uint32_t index() const { return index_; }
  /// Core statistics. Returns the snapshot the pillar thread published at
  /// its last loop turn (and finally at exit), so concurrent reads are
  /// safe while the pillar runs and exact after stop().
  protocol::CoreStats core_stats() const {
    MutexLock lock(stats_mutex_);
    return stats_snapshot_;
  }
  /// The protocol core. Only safe to inspect after stop(): the pillar
  /// thread owns it while running.
  const protocol::PbftCore& core() const { return core_; }

 private:
  void run();
  void publish_stats();
  void handle_frame(transport::ReceivedFrame& frame);
  void handle_prepared(PreparedInput& input);
  void handle_command(PillarCommand& command);
  void feed_request(protocol::Request req, bool verified);
  void drain_effects();

  const ReplicaId self_;
  const std::uint32_t index_;
  const ReplicaRuntimeConfig& config_;
  ExecutionStage& exec_;
  OutboundSink& outbound_;
  app::Service* service_;  ///< offloaded pre-validation hook; may be null
  StableFn on_stable_;
  CatchUpFn on_catch_up_;

  BoundedQueue<PillarEvent> queue_;
  BoundedQueue<PillarCommand> commands_{1 << 16};
  /// Scratch for ExecutionStage::poll_pillar (pre-execution offload):
  /// checkpoint rounds this pillar owns and gap fills for its slice,
  /// produced by the stage's bookkeeping and executed here.
  std::vector<PillarCommand> poll_out_;
  protocol::CryptoVerifier verifier_;
  protocol::PbftCore core_;

  // Observability (registered once in the ctor; handles are stable).
  metrics::Counter& m_frames_in_;
  metrics::Counter& m_requests_in_;
  metrics::Counter& m_instances_delivered_;
  metrics::Gauge& m_stable_seq_;

  mutable Mutex stats_mutex_;
  protocol::CoreStats stats_snapshot_ COP_GUARDED_BY(stats_mutex_);

  std::jthread thread_;
};

}  // namespace copbft::core
