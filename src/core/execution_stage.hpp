// Execution stage: turns the out-of-order stream of committed instances
// into the total order, executes the service, and seals and sends the
// replies (paper §4.1/§4.2).
//
// Pre-execution offload (paper §4.3.1): commit admission no longer runs
// on the stage thread. Each pillar calls admit() from its own thread and
// writes the committed batch directly into its interleaved slice of the
// reorder ring (single writer per slot by the c(p,i) = p + i·NP
// partition; lock-free publish with an atomic per-slot state word). The
// pillar also maintains its slice's admission watermark, and poll_pillar()
// lets it pick up its own work — gap fills for its slice on timeout and
// checkpoint rounds it owns — so the stage thread only advances
// next_seq, reads ready slots, invokes the service and sends the replies.
//
// Responsibilities that remain on the stage thread:
//   * execute strictly in sequence order from the reorder ring,
//   * exactly-once execution per (client, request id) with a bounded,
//     indexed reply cache for O(1) retransmission handling,
//   * post_process, MAC sealing and egress of every reply. The paper
//     moves this work onto the pillars (§4.3.2); on the threaded runtime
//     that hand-off measured no better than sealing here
//     (docs/performance.md "Change 7"),
//   * checkpoint digest/snapshot every `checkpoint_interval` sequence
//     numbers; the StartCheckpoint signal is mailed to the owning pillar
//     and picked up by its next poll_pillar() (paper §4.2.2),
//   * checkpoint install from state transfer (ring truncation composes
//     with concurrent pillar writers: the frontier moves first, stragglers
//     self-heal their slots).
//
// The commit hot path is lock-free end to end: slot publication is an
// atomic state machine, counters are single-writer atomics (or relaxed
// fetch_add where pillars share them), and the only locks left are the
// stage wake-up latch and the per-pillar checkpoint mailboxes — both off
// the per-commit path.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "app/service.hpp"
#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/threading.hpp"
#include "core/events.hpp"
#include "core/runtime_config.hpp"

namespace copbft::core {

struct ExecutionStats {
  std::uint64_t batches_executed = 0;
  std::uint64_t requests_executed = 0;
  std::uint64_t noops_executed = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t replies_sent = 0;
  /// Always 0 (every reply is sealed on the stage); perfbench still reads it.
  std::uint64_t replies_offloaded = 0;
  std::uint64_t replies_omitted = 0;
  std::uint64_t checkpoints_triggered = 0;
  /// Pillar-side gap-fill timeouts: each pillar polls its own stall timer,
  /// so NP pillars observing one stall count NP fills (one per slice).
  std::uint64_t gap_fills_requested = 0;
  /// Redundant commits dropped because their ring slot was still occupied
  /// by an older, not-yet-executed sequence number (re-fetched on demand).
  std::uint64_t reorder_slot_drops = 0;
  /// Checkpoints installed via state transfer / rejected (bad artifact).
  std::uint64_t state_installs = 0;
  std::uint64_t installs_rejected = 0;
  /// Highest seq whose effects this stage's state reflects — by execution
  /// or by checkpoint install.
  protocol::SeqNum last_executed_seq = 0;
  protocol::SeqNum installed_seq = 0;
};

/// Single-writer cell: only the stage thread writes, any thread reads.
/// The store(load+delta) pattern avoids the lock-prefixed RMW a fetch_add
/// would emit — this is the de-locked replacement for the old per-request
/// stats mutex. Release/acquire pairing keeps multi-counter snapshots
/// coherent for pollers (e.g. a test that waits on requests_executed and
/// then reads replies_omitted).
class StageCounter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_release);
  }
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_release);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Multi-writer counter: pillar threads share it (gap fills, slot drops),
/// so this one does pay for the RMW.
class SharedCounter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class ExecutionStage {
 public:
  /// Receives (seq, composite digest, encoded CheckpointArtifact) on every
  /// checkpoint boundary; the host stores it for serving state transfers.
  using SnapshotFn =
      std::function<void(protocol::SeqNum, const crypto::Digest&, Bytes)>;

  ExecutionStage(ReplicaId self, const ReplicaRuntimeConfig& config,
                 app::Service& service, const crypto::CryptoProvider& crypto,
                 transport::Transport& transport);

  void start();
  void stop();

  /// Install before start(); snapshots are only materialized when set.
  void set_snapshot_fn(SnapshotFn fn) { snapshot_fn_ = std::move(fn); }

  /// Pre-execution offload (paper §4.3.1): called *on the pillar thread*
  /// when an instance commits. Invariant-checks the batch and publishes it
  /// straight into its reorder-ring slot, then wakes the stage thread iff
  /// the batch is the execution frontier. Thread-safe: each pillar only
  /// writes slots of its own slice c(p,i) = p + i·NP.
  bool admit(CommittedBatch batch);

  /// Called by the state-transfer manager with a fetched stable
  /// checkpoint; `done` runs on the stage thread with the outcome.
  bool submit_install(InstallState install);

  /// Pillar-side bookkeeping poll (pre-execution offload): pillar
  /// `pillar` drains the checkpoint rounds it owns and its slice's
  /// gap-fill timer into `out` (commands it then feeds to its own
  /// handle_command). Called periodically from the pillar's run loop.
  void poll_pillar(std::uint32_t pillar, std::uint64_t now_us,
                   std::vector<PillarCommand>& out);

  /// Snapshot of the counters; safe to call from any thread while running.
  ExecutionStats stats() const;
  protocol::SeqNum next_seq() const {
    return next_seq_.load(std::memory_order_acquire);
  }

 private:
  struct CachedReply {
    protocol::SeqNum seq = 0;  ///< instance the request executed in
    Bytes result;              ///< raw ordered result (pre-post_process)
  };
  struct ClientState {
    protocol::RequestId max_done = 0;
    /// Executed ids above the pruning floor (async windows commit out of
    /// order within a client).
    // COPLINT(allow:det-unordered-member: lookup-only dedup set; pruning walks ids numerically from max_done, never by iteration)
    std::unordered_set<protocol::RequestId> done;
    /// Recent replies for retransmission handling: eviction order (oldest
    /// first) plus an id -> reply index for O(1) lookup.
    std::deque<protocol::RequestId> reply_order;
    // COPLINT(allow:det-unordered-member: lookup-only cache; eviction order comes from reply_order, a deque)
    std::unordered_map<protocol::RequestId, CachedReply> replies;
  };

  /// Window-bounded concurrent reorder buffer indexed by seq % capacity.
  /// Multi-producer (one pillar per slot by the slice partition),
  /// single-consumer (the stage thread). Each slot carries an atomic state
  /// word encoding {empty, claimed(seq), published(seq)}:
  ///
  ///   0                  free
  ///   (seq << 1) | 1     claimed — a writer (or the consumer) holds the
  ///                      payload exclusively
  ///   (seq << 1)         published — payload readable, owned by `seq`
  ///
  /// Writers claim a slot by CAS, fill the payload, then publish with a
  /// seq_cst store (the stage pairs it with a seq_cst next_seq load for
  /// the wake-up handshake). The consumer claims a published frontier slot
  /// before moving the batch out, so a concurrent writer can never touch a
  /// payload the stage is consuming. The drift invariant keeps live
  /// sequence numbers within `window` of the execution frontier, so a
  /// ring of ~2x window slots gives every live seq a distinct slot; slot
  /// collisions (bound violated or clamped ring) keep the lower seq.
  class ReorderRing {
   public:
    enum class Outcome {
      kStored,        ///< batch published into its slot
      kDuplicate,     ///< slot already carries this seq (redelivery)
      kDroppedSelf,   ///< collision with a lower live seq: ours dropped
      kEvictedOther,  ///< collision with a higher live seq: it was evicted
    };
    struct PublishResult {
      Outcome outcome = Outcome::kStored;
      /// kDuplicate only: stored fingerprint was read consistently and can
      /// be compared against the incoming batch (fork check).
      bool fingerprint_valid = false;
      std::uint64_t stored_hash = 0;
      std::uint64_t stored_meta = 0;
    };

    explicit ReorderRing(std::uint64_t window);

    /// Writer side (pillar thread). `frontier` is the caller's seq_cst
    /// snapshot of next_seq; occupants below it are dead and reclaimed in
    /// place. `hash`/`meta` fingerprint the batch for fork detection.
    PublishResult publish(CommittedBatch&& batch, protocol::SeqNum frontier,
                          std::uint64_t hash, std::uint64_t meta);
    /// Consumer side (stage thread): atomically claims and removes the
    /// batch published for exactly `seq`, or returns nullopt.
    std::optional<CommittedBatch> take(protocol::SeqNum seq);
    /// Consumer side: drops every published batch with seq <= `upto`
    /// (checkpoint install). Slots a writer holds claimed are skipped —
    /// they republish against the post-install frontier and self-heal.
    void discard_upto(protocol::SeqNum upto);

    std::size_t size() const {
      return count_.load(std::memory_order_relaxed);
    }
    bool empty() const { return size() == 0; }

   private:
    struct alignas(64) Slot {
      std::atomic<std::uint64_t> state{0};
      /// Fingerprint of the published batch (see batch_fingerprint in the
      /// .cpp): readable by any pillar for the duplicate fork check, so
      /// they are atomics validated by re-reading `state`.
      std::atomic<std::uint64_t> hash{0};
      std::atomic<std::uint64_t> meta{0};
      std::optional<CommittedBatch> batch;
    };

    std::size_t index(protocol::SeqNum seq) const {
      return static_cast<std::size_t>(seq) & mask_;
    }
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::atomic<std::size_t> count_{0};
  };

  /// Per-pillar admission lane. `watermark` is written only by the owning
  /// pillar (release) and read by every pillar's gap poll (acquire); the
  /// poll fields are private to the owning pillar's thread.
  struct alignas(64) PillarLane {
    std::atomic<protocol::SeqNum> watermark{0};
    protocol::SeqNum last_frontier = 0;   ///< poll-private
    std::uint64_t stall_since_us = 0;     ///< poll-private
  };

  /// Checkpoint hand-off to the owning pillar. The stage thread appends at
  /// most one signal per checkpoint_interval sequence numbers and the
  /// owner drains on its next poll — far off the per-commit path, so a
  /// tiny mutex beats inventing a lock-free mailbox here.
  struct CkptSignal {
    protocol::SeqNum seq = 0;
    crypto::Digest digest{};
  };
  struct CkptMailbox {
    Mutex mutex;
    std::vector<CkptSignal> pending COP_GUARDED_BY(mutex);
  };

  void run();
  /// Wakes the stage thread (publish-side of the Dekker handshake: slot
  /// publish with seq_cst, then a seq_cst next_seq load decides the wake).
  /// Deliberately not COP_HOT: it only runs when the published seq *is*
  /// the frontier, i.e. once per stage wake-up, not per commit.
  void wake_exec();
  /// Verifies and installs a transferred checkpoint (state transfer).
  void handle_install(InstallState install);
  Bytes encode_client_table() const;
  bool decode_client_table(
      ByteSpan table,
      std::unordered_map<protocol::ClientId, ClientState>& out) const;
  void apply_ready();
  void execute_batch(const CommittedBatch& batch);
  void execute_request(const protocol::Request& request,
                       const CommittedBatch& batch);
  /// Seals `result` into a Reply stamped with `view` and sends it to
  /// `client`; `pillar` and `seq` only stamp the reply-egress trace point.
  void send_reply(protocol::ClientId client, protocol::RequestId request,
                  protocol::ViewId view, std::uint32_t pillar,
                  protocol::SeqNum seq, Bytes result);
  void maybe_checkpoint(protocol::SeqNum seq);
  bool already_executed(ClientState& state, protocol::RequestId id) const;
  void record_executed(ClientState& state, protocol::RequestId id);

  const ReplicaId self_;
  const ReplicaRuntimeConfig& config_;
  app::Service& service_;
  const crypto::CryptoProvider& crypto_;
  transport::Transport& transport_;
  SnapshotFn snapshot_fn_;

  // Shared between pillar writers and the stage thread. next_seq_ is
  // advanced only by the stage thread (execution and install); pillars
  // read it with seq_cst for the stale check / wake handshake.
  ReorderRing reorder_;
  std::atomic<protocol::SeqNum> next_seq_{1};
  std::unique_ptr<PillarLane[]> lanes_;
  std::unique_ptr<CkptMailbox[]> ckpt_mail_;

  // State transfer installs still arrive over a queue: they are rare,
  // whole-state operations that must run on the stage thread.
  BoundedQueue<InstallState> install_queue_;

  // Stage wake-up latch. wake_pending_ absorbs the race between a
  // pillar's notify and the stage re-entering the wait.
  mutable Mutex wake_mutex_;
  Cv wake_cv_;
  bool wake_pending_ COP_GUARDED_BY(wake_mutex_) = false;
  std::atomic<bool> stop_requested_{false};

  // clients_ and installed_floor_ are owned by the stage thread.
  // COPLINT(allow:det-unordered-member: per-request access is keyed lookup; the one iteration (encode_client_table) sorts ids before serializing)
  std::unordered_map<protocol::ClientId, ClientState> clients_;
  /// Highest checkpoint installed via state transfer; execution and later
  /// installs must never regress below it.
  protocol::SeqNum installed_floor_ = 0;

  // Observability (registered once in the ctor; handles are stable).
  metrics::Gauge& m_reorder_depth_;
  metrics::Gauge& m_drift_;
  metrics::Counter& m_batches_executed_;
  metrics::Counter& m_requests_executed_;
  metrics::Counter& m_replies_sent_;
  metrics::HistogramMetric& m_execute_us_;

  // Counters: written only by the stage thread, snapshotted by stats().
  StageCounter n_batches_executed_;
  StageCounter n_requests_executed_;
  StageCounter n_noops_executed_;
  StageCounter n_duplicates_suppressed_;
  StageCounter n_replies_sent_;
  StageCounter n_replies_omitted_;
  StageCounter n_checkpoints_triggered_;
  StageCounter n_state_installs_;
  StageCounter n_installs_rejected_;
  StageCounter n_last_executed_seq_;
  StageCounter n_installed_seq_;
  // Written from pillar threads (admission moved to the pillars).
  SharedCounter n_gap_fills_requested_;
  SharedCounter n_reorder_slot_drops_;

  std::jthread thread_;
};

}  // namespace copbft::core
