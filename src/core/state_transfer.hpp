// Checkpoint-based state transfer for laggard replicas.
//
// A replica that falls behind the 2f+1 quorum past its peers' log
// truncation is stranded: its window cannot slide without executing, and
// the certificates it needs are garbage-collected cluster-wide (§3.3 log
// truncation). This manager implements the recovery path:
//
//   server side — remembers the newest checkpoint a pillar's agreement
//   made stable, holds the checkpoint hand-offs the execution stage
//   produced at or above it (client table, service digest and a version
//   of the service state), and serves the stable one to peers in chunked
//   StateReply frames on its own transport lane (lane NP, below the pillar
//   lanes). Each request encodes the artifact afresh on this thread; no
//   encoding is cached. Execution runs at most `window` past stability, so
//   at most window / checkpoint_interval + 1 hand-offs are held, and a
//   dropped one frees its version here, not on the execution stage.
//
//   client side — when a pillar reports StateTransferNeeded, broadcasts a
//   StateRequest to every peer, reassembles per-peer replies, and installs
//   a candidate once f+1 distinct peers attested the same (seq, digest).
//   With MAC authenticators a checkpoint certificate is not transferable
//   proof (MACs only convince their addressee), so cross-checking f+1
//   independent attestations — at least one from a correct replica —
//   replaces third-party certificate verification. The snapshot content
//   itself is verified against the agreed digest during install; a
//   Byzantine peer serving a bad snapshot is detected by the mismatch and
//   the next attested peer is tried. Timeouts re-broadcast the request.
//
// Single-threaded like the other stages: every input (frames, checkpoint
// hand-offs from the execution stage, stability notices, hints, install
// outcomes) is an event in one queue.
#pragma once

#include <map>
#include <vector>

#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/threading.hpp"
#include "core/execution_stage.hpp"
#include "core/outbound.hpp"
#include "core/runtime_config.hpp"
#include "protocol/verifier.hpp"
#include "transport/transport.hpp"

namespace copbft::core {

struct StateTransferStats {
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t requests_retried = 0;
  /// StateRequests answered with a full chunk set.
  std::uint64_t snapshots_served = 0;
  /// Install attempts rejected (bad artifact / digest mismatch).
  std::uint64_t snapshots_rejected = 0;
  protocol::SeqNum installed_seq = 0;
  /// Checkpoint hand-offs held for serving peers.
  std::uint64_t held_checkpoints = 0;
};

class StateTransferManager final : public transport::FrameSink {
 public:
  /// Runs on the manager thread after a successful install; the host fans
  /// NoteStable/FetchMissing out to its pillars so their windows slide.
  using InstalledFn = std::function<void(
      protocol::SeqNum seq, const crypto::Digest& digest,
      protocol::SeqNum fetch_upto)>;

  StateTransferManager(ReplicaId self, const ReplicaRuntimeConfig& config,
                       const crypto::CryptoProvider& crypto,
                       transport::Transport& transport, ExecutionStage& exec,
                       InstalledFn on_installed);

  void start();
  void stop();

  /// The transport lane this manager must be registered on.
  transport::LaneId lane() const { return config_.num_pillars; }

  // FrameSink (StateRequest/StateReply frames).
  bool deliver(transport::ReceivedFrame frame) override {
    return queue_.push(Event{std::move(frame)});
  }
  /// Non-blocking admission for the event-loop transport (state-transfer
  /// traffic is replica-to-replica, so kBusy here turns into TCP
  /// backpressure on the peer, never a blocked loop thread).
  transport::Admit try_deliver(transport::ReceivedFrame& frame) override {
    Event event{std::move(frame)};
    if (queue_.try_push_ref(event)) return transport::Admit::kAdmitted;
    frame = std::move(std::get<transport::ReceivedFrame>(event));
    return queue_.closed() ? transport::Admit::kClosed
                           : transport::Admit::kBusy;
  }
  void close() override { queue_.close(); }

  /// Execution stage reached a checkpoint (any thread).
  void store_checkpoint(protocol::SeqNum seq, const crypto::Digest& digest,
                        CheckpointHandOff checkpoint) {
    queue_.push(Event{StoreCheckpoint{seq, digest, std::move(checkpoint)}});
  }

  /// A pillar's checkpoint agreement became stable (any thread).
  void note_stable(protocol::SeqNum seq, const crypto::Digest& digest,
                   std::vector<protocol::ReplicaId> voters) {
    queue_.push(Event{MarkStable{seq, digest, std::move(voters)}});
  }

  /// A pillar observed evidence of being stranded (any thread).
  void note_peer_ahead(protocol::SeqNum observed) {
    queue_.push(Event{PeerAhead{observed}});
  }

  StateTransferStats stats() const {
    MutexLock lock(stats_mutex_);
    return stats_;
  }

 private:
  struct StoreCheckpoint {
    protocol::SeqNum seq = 0;
    crypto::Digest digest;
    CheckpointHandOff checkpoint;
  };
  struct MarkStable {
    protocol::SeqNum seq = 0;
    crypto::Digest digest;
    std::vector<protocol::ReplicaId> voters;
  };
  struct PeerAhead {
    protocol::SeqNum observed = 0;
  };
  struct InstallDone {
    protocol::ReplicaId peer = 0;
    protocol::SeqNum seq = 0;
    crypto::Digest digest;
    bool ok = false;
  };
  using Event = std::variant<transport::ReceivedFrame, StoreCheckpoint,
                             MarkStable, PeerAhead, InstallDone>;

  /// A checkpoint held for serving peers.
  struct Held {
    crypto::Digest digest;
    CheckpointHandOff checkpoint;
  };

  /// Per-peer reassembly of one checkpoint transfer.
  struct Incoming {
    protocol::SeqNum seq = 0;
    crypto::Digest digest;
    std::vector<protocol::ReplicaId> voters;
    std::uint32_t chunk_count = 0;
    std::map<std::uint32_t, Bytes> chunks;
    /// Install from this peer already failed; do not retry it.
    bool tried = false;

    bool complete() const { return chunks.size() == chunk_count; }
  };

  void run();
  void handle(Event event);
  void handle_frame(transport::ReceivedFrame frame);
  void handle_request(const protocol::StateRequest& request);
  void handle_reply(protocol::StateReply reply);
  void begin_transfer(std::uint64_t now);
  void send_request(std::uint64_t now);
  void try_install();
  void finish_install(const InstallDone& done);
  void tick(std::uint64_t now);

  const ReplicaId self_;
  const ReplicaRuntimeConfig& config_;
  const crypto::CryptoProvider& crypto_;
  transport::Transport& transport_;
  ExecutionStage& exec_;
  InstalledFn on_installed_;

  BoundedQueue<Event> queue_;
  protocol::CryptoVerifier verifier_;

  // Everything below is owned by the manager thread.
  /// The newest stability heard of, and the checkpoints at or above it:
  /// the one at stable_.seq is served once it arrives, higher ones wait to
  /// turn stable.
  MarkStable stable_;
  std::map<protocol::SeqNum, Held> held_;
  bool catching_up_ = false;
  bool install_pending_ = false;
  protocol::SeqNum target_hint_ = 0;
  protocol::SeqNum min_seq_ = 0;
  std::uint64_t deadline_us_ = 0;
  std::map<protocol::ReplicaId, Incoming> incoming_;

  // Observability (registered once in the ctor; handles are stable).
  metrics::Counter& m_started_;
  metrics::Counter& m_completed_;
  metrics::Counter& m_served_;
  metrics::Counter& m_rejected_;

  mutable Mutex stats_mutex_;
  StateTransferStats stats_ COP_GUARDED_BY(stats_mutex_);
  std::jthread thread_;
};

}  // namespace copbft::core
