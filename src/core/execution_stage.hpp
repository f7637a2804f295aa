// Execution stage: turns the out-of-order stream of committed instances
// into the total order, executes the service, and seals and sends the
// replies (paper §4.1/§4.2).
//
// The stage has one inbox and one thread, like the state-transfer
// manager. Pillars push committed batches (admit) and the state-transfer
// manager pushes checkpoint installs (submit_install) onto the inbox; the
// stage thread alone
//   * screens every commit (genesis, slice partition, drift bound, forks)
//     and buffers it in a reorder buffer keyed by sequence number,
//   * executes strictly in sequence order, exactly once per (client,
//     request id), with a bounded, indexed reply cache for O(1)
//     retransmission handling,
//   * post-processes, MAC-seals and sends every reply. The paper moves
//     this work onto the pillars (§4.3.2); on the threaded runtime that
//     hand-off measured no better than sealing here (docs/performance.md
//     "Change 7"),
//   * times gap stalls and asks every pillar to fill its slice (FillGap,
//     paper §4.2.1),
//   * digests the state every `checkpoint_interval` sequence numbers,
//     asks the round-robin owner pillar to run the checkpoint agreement
//     (StartCheckpoint, paper §4.2.2) and hands the state-transfer
//     manager the client table and a Service::version() of the state.
//     The stage encodes no snapshot: a KvStore version costs it
//     O(buckets), and the manager encodes on its own thread when a peer
//     asks (docs/performance.md "Change 10"),
//   * installs checkpoints fetched by state transfer.
//
// Commands leave through the command hook, which the host maps onto its
// pillars' command queues. The paper also moves commit admission onto
// the pillars (§4.3.1); on the threaded runtime that measured no better
// than one queue hop per commit to this stage (docs/performance.md
// "Change 8").
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <variant>
#include <vector>

#include "app/service.hpp"
#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/threading.hpp"
#include "core/checkpoint_artifact.hpp"
#include "core/events.hpp"
#include "core/runtime_config.hpp"

namespace copbft::core {

struct ExecutionStats {
  std::uint64_t batches_executed = 0;
  std::uint64_t requests_executed = 0;
  std::uint64_t noops_executed = 0;
  std::uint64_t duplicates_suppressed = 0;
  /// Suppressed duplicates whose reply had left the per-client cache, so
  /// the retransmission got no answer.
  std::uint64_t duplicates_unanswered = 0;
  std::uint64_t replies_sent = 0;
  /// Sealed replies the transport refused to send.
  std::uint64_t replies_unsent = 0;
  /// Always 0 (every reply is sealed on the stage); perfbench still reads it.
  std::uint64_t replies_offloaded = 0;
  std::uint64_t replies_omitted = 0;
  std::uint64_t checkpoints_triggered = 0;
  /// FillGap commands sent: a timed-out stall asks every pillar to fill
  /// its own slice, so one stall counts NP fills (one per slice).
  std::uint64_t gap_fills_requested = 0;
  /// Commits dropped because they lay a whole reorder span or more past
  /// the execution frontier; the replica recovers them by state transfer.
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

class ExecutionStage {
 public:
  /// Receives (seq, composite digest, hand-off) on every checkpoint
  /// boundary, on the stage thread; the host holds the hand-off for
  /// serving state transfers and encodes it only when asked.
  using SnapshotFn = std::function<void(protocol::SeqNum, const crypto::Digest&,
                                        CheckpointHandOff)>;

  ExecutionStage(ReplicaId self, const ReplicaRuntimeConfig& config,
                 app::Service& service, const crypto::CryptoProvider& crypto,
                 transport::Transport& transport);

  void start();
  /// Closes the inbox; the stage drains what is queued, then exits.
  void stop();

  /// Install before start(); versions are only taken when set.
  void set_snapshot_fn(SnapshotFn fn) { snapshot_fn_ = std::move(fn); }
  /// Install before start(): delivers each StartCheckpoint and FillGap to
  /// the pillar it names. Runs on the stage thread and must not wait on
  /// that pillar. Unset means commands are dropped (bare-stage tests and
  /// benches).
  void set_command_fn(
      std::function<void(std::uint32_t pillar, PillarCommand)> fn) {
    command_fn_ = std::move(fn);
  }

  /// Queues a committed instance; called on the pillar thread when it
  /// commits. Blocks while the inbox is full, so the inbox never drops a
  /// commit; false only once the stage is stopped.
  bool admit(CommittedBatch batch);

  /// Called by the state-transfer manager with a fetched stable
  /// checkpoint; `done` runs on the stage thread with the outcome.
  bool submit_install(InstallState install);

  /// Snapshot of the counters; safe to call from any thread while running.
  ExecutionStats stats() const;
  protocol::SeqNum next_seq() const {
    return next_seq_.load(std::memory_order_acquire);
  }

 private:
  using Input = std::variant<CommittedBatch, InstallState>;

  struct CachedReply {
    protocol::SeqNum seq = 0;  ///< instance the request executed in
    Bytes result;              ///< raw ordered result (pre-post_process)
  };
  struct ClientState {
    protocol::RequestId max_done = 0;
    /// Executed ids above the pruning floor, ascending, so the checkpoint
    /// encodes them without a sort. Async windows commit out of order
    /// within a client, so an id lands a few places from the end.
    std::vector<protocol::RequestId> done;
    /// Recent replies for retransmission handling: eviction order (oldest
    /// first) plus an id -> reply index for O(1) lookup.
    std::deque<protocol::RequestId> reply_order;
    // COPLINT(allow:det-unordered-member: lookup-only cache; eviction order comes from reply_order, a deque)
    std::unordered_map<protocol::RequestId, CachedReply> replies;
  };

  void run();
  /// Screens a commit and buffers it for in-order execution.
  void buffer(CommittedBatch batch);
  /// Asks every pillar to fill its slice once the frontier has stalled
  /// for gap_timeout_us behind a higher admitted seq.
  void check_gap(std::uint64_t now_us);
  void post_command(std::uint32_t pillar, PillarCommand command);
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
  std::function<void(std::uint32_t, PillarCommand)> command_fn_;
  /// Commits at or beyond next_seq + span are dropped: the drift bound
  /// keeps live commits within one window of stability, and the span
  /// (>= 2·window + 2) bounds the buffer when the frontier lags that.
  const protocol::SeqNum span_;

  BoundedQueue<Input> inbox_;
  /// Advanced only by the stage thread (execution and install); any
  /// thread may read it.
  std::atomic<protocol::SeqNum> next_seq_{1};

  /// A commit in the reorder buffer and when it entered.
  struct Buffered {
    CommittedBatch batch;
    std::uint64_t since_us = 0;
  };

  // Owned by the stage thread.
  std::map<protocol::SeqNum, Buffered> reorder_;
  /// Highest seq admitted past the stale check, dropped commits included.
  protocol::SeqNum highest_admitted_ = 0;
  /// Frontier of the current stall and when the stage first saw it
  /// (0 = not stalled).
  protocol::SeqNum stall_frontier_ = 0;
  std::uint64_t stall_since_us_ = 0;
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
  metrics::HistogramMetric& m_reorder_wait_us_;

  // Counters: written only by the stage thread, snapshotted by stats().
  StageCounter n_batches_executed_;
  StageCounter n_requests_executed_;
  StageCounter n_noops_executed_;
  StageCounter n_duplicates_suppressed_;
  StageCounter n_duplicates_unanswered_;
  StageCounter n_replies_sent_;
  StageCounter n_replies_unsent_;
  StageCounter n_replies_omitted_;
  StageCounter n_checkpoints_triggered_;
  StageCounter n_gap_fills_requested_;
  StageCounter n_reorder_slot_drops_;
  StageCounter n_state_installs_;
  StageCounter n_installs_rejected_;
  StageCounter n_last_executed_seq_;
  StageCounter n_installed_seq_;

  std::jthread thread_;
};

}  // namespace copbft::core
