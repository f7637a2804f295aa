// Protocol-logic unit: one thread driving one PbftCore.
//
// For COP this is a *pillar* (paper §4.1): it owns a slice of the sequence
// space, verifies in order and seals in place, and talks to peers over its
// private lane. When the transport hands it that lane's event loop, the
// pillar thread runs the loop's rounds itself: it reads its connections,
// runs the core over what arrived and flushes what it sent, with no other
// thread in between. The votes its core emits during one round leave at
// the round's end as one bundle per peer (RoundOutbox), and a received
// bundle is verified once, when the core first needs one of its votes.
// The same class, instantiated once with the trivial
// slice and an AuthPoolOutbound, is the logic stage of the TOP and SMaRt
// pipelines — the paper's "same code base" methodology in code.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "app/service.hpp"
#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/threading.hpp"
#include "core/events.hpp"
#include "core/execution_stage.hpp"
#include "core/outbound_sink.hpp"
#include "protocol/pbft_core.hpp"
#include "transport/event_loop.hpp"

namespace copbft::core {

/// The counter `name` of replica `self`'s pillar `index`, as the pillar
/// registers it: "replica<self>.pillar<index>.<name>".
metrics::Counter& pillar_counter(ReplicaId self, std::uint32_t index,
                                 const std::string& name);

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

  /// Before start(): drive `loop` (the lane the transport handed over)
  /// from the pillar thread, waiting in its rounds instead of on the
  /// queue, until stop() hands it back. Null keeps the queue wait.
  void drive(std::shared_ptr<transport::EventLoop> loop);

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
  /// thread. A frame from another loop's thread (a connection's first
  /// bytes, read before it moves to this pillar's lane) wakes the round.
  transport::Admit try_deliver(transport::ReceivedFrame& frame) override {
    PillarEvent event{std::move(frame)};
    if (queue_.try_push_ref(event)) {
      wake_loop();
      return transport::Admit::kAdmitted;
    }
    frame = std::move(std::get<transport::ReceivedFrame>(event));
    return queue_.closed() ? transport::Admit::kClosed
                           : transport::Admit::kBusy;
  }
  void close() override { queue_.close(); }

  /// Prepared messages from upstream pipeline stages.
  bool post(PillarEvent event) { return queue_.push(std::move(event)); }

  /// Commands from the execution stage, sibling pillars and the
  /// state-transfer manager. Uses a separate queue with ample headroom so
  /// a poster never blocks on a pillar whose main queue is full. The push
  /// then wakes a parked pillar, which drains its commands at once.
  bool post_command(PillarCommand command) {
    if (!commands_.push(std::move(command))) return false;
    queue_.wake();
    wake_loop();
    return true;
  }

  std::uint32_t index() const { return index_; }
  /// Core statistics. Returns the snapshot the pillar thread published at
  /// its last 1 ms heartbeat (and finally at exit): while the pillar runs a
  /// read is safe but may lag by a heartbeat; after stop() it is exact.
  protocol::CoreStats core_stats() const {
    MutexLock lock(stats_mutex_);
    return stats_snapshot_;
  }
  /// The protocol core. Only safe to inspect after stop(): the pillar
  /// thread owns it while running.
  const protocol::PbftCore& core() const { return core_; }

 private:
  void run();
  void drive_loop(std::uint64_t& last_tick_us);
  void heartbeat(std::uint64_t& last_tick_us);
  /// Ends a round's wait when the pillar drives a loop. Free on the
  /// pillar's own thread inside its round, an eventfd write elsewhere.
  void wake_loop() {
    if (auto* loop = driven_.load(std::memory_order_acquire)) loop->wake();
  }
  void publish_stats();
  void handle_event(PillarEvent& event);
  void handle_frame(transport::ReceivedFrame& frame);
  void handle_prepared(PreparedInput& input);
  void handle_command(PillarCommand& command);
  void feed_request(protocol::Request req, bool verified);
  void drain_effects();
  /// One round: commands, then `first` (the event a queue wait took, or
  /// null), then the events queued behind it, a heartbeat, and last the
  /// round's votes.
  void run_round(PillarEvent* first, std::uint64_t& last_tick_us);

  const ReplicaId self_;
  const std::uint32_t index_;
  const ReplicaRuntimeConfig& config_;
  ExecutionStage& exec_;
  app::Service* service_;  ///< offloaded pre-validation hook; may be null
  StableFn on_stable_;
  CatchUpFn on_catch_up_;

  // Observability (registered once in the ctor; handles are stable).
  // Declared before the verifier and the round outbox that count into them.
  metrics::Counter& m_frames_in_;
  metrics::Counter& m_requests_in_;
  metrics::Counter& m_instances_delivered_;
  metrics::Counter& m_votes_sent_;
  metrics::Counter& m_bundles_sent_;
  metrics::Counter& m_votes_bundled_;
  metrics::Counter& m_bundles_checked_;
  metrics::Gauge& m_stable_seq_;

  BoundedQueue<PillarEvent> queue_;
  BoundedQueue<PillarCommand> commands_{1 << 16};
  /// The claimed lane, set by drive() before start(). `driven_` mirrors it
  /// for the transport and command threads that wake the pillar.
  std::shared_ptr<transport::EventLoop> loop_;
  std::atomic<transport::EventLoop*> driven_{nullptr};
  protocol::CryptoVerifier verifier_;
  protocol::PbftCore core_;
  /// What the core sent during the current round (pillar thread only).
  RoundOutbox round_;
  /// The effects being drained; its buffer and the core's trade places at
  /// every drain, so neither reallocates (pillar thread only).
  std::vector<protocol::Effect> effects_;

  mutable Mutex stats_mutex_;
  protocol::CoreStats stats_snapshot_ COP_GUARDED_BY(stats_mutex_);

  std::jthread thread_;
};

}  // namespace copbft::core
