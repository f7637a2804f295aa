// Sans-IO PBFT protocol core.
//
// One PbftCore instance drives the consensus protocol for one *slice* of
// the sequence-number space (offset + stride). A classic replica uses the
// trivial slice {0,1}; a COP pillar p of NP uses {p, NP}, which realizes
// the paper's partitioned, multiplied protocol logic (§4.2.1) without any
// change to the protocol itself.
//
// The core is single-threaded by construction: the host serializes all
// calls. It performs *in-order* verification — messages are verified via
// the MessageVerifier only at the moment the protocol needs them, so
// redundant messages (votes beyond quorum, duplicates, stale views) are
// never verified (§3.2). Hosts with out-of-order verification pre-verify
// and set IncomingMessage::pre_verified.
//
// All outputs are Effects (see effects.hpp); outgoing messages carry no
// authenticator — the host attaches it (in place, or in auth threads).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "protocol/config.hpp"
#include "protocol/effects.hpp"
#include "protocol/verifier.hpp"

namespace copbft::protocol {

/// Counters exposed for tests, ablations and the simulator's cost model.
struct CoreStats {
  std::uint64_t proposals = 0;
  std::uint64_t noop_proposals = 0;
  std::uint64_t requests_proposed = 0;
  std::uint64_t instances_delivered = 0;
  std::uint64_t requests_delivered = 0;
  /// Replica-message authenticators actually verified.
  std::uint64_t macs_verified = 0;
  /// Replica messages consumed without verification because the protocol
  /// did not need them (the in-order efficiency win) ...
  std::uint64_t verifications_skipped = 0;
  /// ... or because the host verified them out-of-order already.
  std::uint64_t pre_verified = 0;
  /// Client-request authenticators verified / skipped via the
  /// verified-request cache.
  std::uint64_t request_macs_verified = 0;
  std::uint64_t request_verifications_skipped = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t invalid_dropped = 0;
  /// Messages held because they arrived at most one checkpoint interval
  /// above our watermark window (peer's stable checkpoint led ours);
  /// replayed when the window slides instead of being dropped.
  std::uint64_t over_window_deferred = 0;
  /// Over-window messages dropped because the holding pen was full.
  std::uint64_t over_window_dropped = 0;
  std::uint64_t view_changes_started = 0;
  std::uint64_t view_changes_completed = 0;
  std::uint64_t checkpoints_stable = 0;
  /// StateTransferNeeded effects emitted (rate-limited laggard detection).
  std::uint64_t state_transfer_hints = 0;
  /// Injected misbehaviour (nonzero only on a configured adversary):
  /// conflicting pre-prepares sent / own votes suppressed.
  std::uint64_t adversary_equivocations = 0;
  std::uint64_t adversary_omissions = 0;

  CoreStats& operator+=(const CoreStats& other) {
    proposals += other.proposals;
    noop_proposals += other.noop_proposals;
    requests_proposed += other.requests_proposed;
    instances_delivered += other.instances_delivered;
    requests_delivered += other.requests_delivered;
    macs_verified += other.macs_verified;
    verifications_skipped += other.verifications_skipped;
    pre_verified += other.pre_verified;
    request_macs_verified += other.request_macs_verified;
    request_verifications_skipped += other.request_verifications_skipped;
    duplicates_dropped += other.duplicates_dropped;
    invalid_dropped += other.invalid_dropped;
    over_window_deferred += other.over_window_deferred;
    over_window_dropped += other.over_window_dropped;
    view_changes_started += other.view_changes_started;
    view_changes_completed += other.view_changes_completed;
    checkpoints_stable += other.checkpoints_stable;
    state_transfer_hints += other.state_transfer_hints;
    adversary_equivocations += other.adversary_equivocations;
    adversary_omissions += other.adversary_omissions;
    return *this;
  }
};
// A new counter changes the size: sum it in operator+= above, then bump.
static_assert(sizeof(CoreStats) == 20 * sizeof(std::uint64_t));

class PbftCore {
 public:
  PbftCore(ProtocolConfig config, ReplicaId self, SeqSlice slice,
           MessageVerifier& verifier,
           const crypto::CryptoProvider& crypto);

  // ---- inputs (host serializes all calls) ------------------------------

  /// Client request from the host's client management. `verified` = the
  /// host already checked the client MAC; otherwise the core verifies
  /// in place.
  void on_request(Request req, std::uint64_t now_us, bool verified = false);

  /// Protocol message from a peer replica.
  void on_message(IncomingMessage im, std::uint64_t now_us);

  /// Execution stage reached checkpoint sequence `seq` with state digest
  /// `digest` and this core owns the checkpoint agreement (paper §4.2.2).
  void start_checkpoint(SeqNum seq, const crypto::Digest& digest,
                        std::uint64_t now_us);

  /// Stability reached by a sibling pillar's checkpoint agreement;
  /// truncates the log and slides the window without re-agreeing.
  void note_checkpoint_stable(SeqNum seq, const crypto::Digest& digest);

  /// Execution stage is starved waiting for sequence numbers of this slice
  /// up to `seq`; propose pending requests and fill the rest with no-op
  /// instances if this replica currently leads them (paper §4.2.1).
  /// `frontier` is the execution stage's next needed sequence number (0 =
  /// unknown): if it sits at or below this core's stable checkpoint, the
  /// needed certificates were already truncated cluster-wide and only a
  /// state transfer can recover — a StateTransferNeeded effect is emitted.
  void fill_gap_upto(SeqNum seq, std::uint64_t now_us, SeqNum frontier = 0);

  /// After a checkpoint install slid the window: (re-)fetch the proposals
  /// for this slice's still-open in-window sequence numbers up to `upto`
  /// so the tail above the restored checkpoint can be ordered.
  void fetch_missing_upto(SeqNum upto, std::uint64_t now_us);

  /// Drives timeouts (view change suspicion) and retransmission. Hosts
  /// call this at a coarse period; `now_us` is host time (real or
  /// simulated). It walks the instance log only once a retransmission
  /// deadline is due (and for its COP_INVARIANT cross-check).
  void tick(std::uint64_t now_us);

  // ---- outputs ----------------------------------------------------------

  std::vector<Effect>& effects() { return effects_; }
  /// Moves the pending effects into `out`, which is cleared first, and
  /// keeps `out`'s old buffer for the next ones: a host that drains into
  /// the same vector every time reallocates neither.
  void take_effects(std::vector<Effect>& out) {
    out.clear();
    out.swap(effects_);
  }
  std::vector<Effect> take_effects() {
    std::vector<Effect> out;
    take_effects(out);
    return out;
  }

  // ---- introspection ----------------------------------------------------

  ViewId view() const { return view_; }
  bool in_view_change() const { return view_changing_; }
  SeqNum stable_seq() const { return stable_seq_; }
  /// Next sequence number this core would propose.
  SeqNum next_proposal_seq() const { return slice_.at(next_index_); }
  std::size_t pending_requests() const { return pending_.size(); }
  std::size_t open_instances() const { return open_instances_; }
  const CoreStats& stats() const { return stats_; }
  const ProtocolConfig& config() const { return config_; }
  ReplicaId self() const { return self_; }
  const SeqSlice& slice() const { return slice_; }

 private:
  // What the log walks read (seq, proposer, the flags, the activity
  // stamp) comes first, so a walk reads the head of each slot only.
  struct Instance {
    SeqNum seq = 0;
    ViewId view = 0;        ///< View the accepted pre-prepare belongs to.
    /// Last time this instance made progress (for retransmission).
    std::uint64_t last_activity_us = 0;
    ReplicaId proposer = 0; ///< Whose pre-prepare authority; excluded from
                            ///< the prepare quorum.
    bool have_pre_prepare = false;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool prepared = false;
    bool committed = false;
    bool delivered = false;
    ReplicaSet prepares;
    ReplicaSet commits;
    crypto::Digest digest;
    /// The accepted proposal's batch, shared with its PrePrepare and its
    /// Deliver.
    Batch requests;
    /// Votes that arrived before the pre-prepare; verified lazily once the
    /// digest is known.
    std::vector<IncomingMessage> deferred;
  };

  struct CheckpointState {
    std::map<ReplicaId, crypto::Digest> votes;  ///< verified votes
    std::vector<IncomingMessage> deferred;      ///< not yet needed/verified
    bool have_own = false;
    bool stable = false;
    std::uint64_t last_activity_us = 0;
  };

  // message handlers
  void handle_pre_prepare(IncomingMessage im);
  void handle_vote(IncomingMessage im);  // Prepare / Commit
  void handle_checkpoint(IncomingMessage im);
  void handle_view_change(IncomingMessage im);
  void handle_new_view(IncomingMessage im);
  void handle_fetch(IncomingMessage im);

  /// Re-emits this replica's messages for instances/checkpoints that made
  /// no progress for retransmit_interval_us (liveness under loss), and
  /// recomputes retransmit_due_us_ exactly.
  void retransmit_stalled();
  /// Stamps an instance's or checkpoint's `last_activity_us` with the
  /// current time and lowers retransmit_due_us_ to the new deadline.
  void note_activity(std::uint64_t& last_activity_us) {
    last_activity_us = now_us_;
    retransmit_due_us_ = std::min(retransmit_due_us_,
                                  now_us_ + config_.retransmit_interval_us);
  }

  // normal-case machinery
  bool accept_pre_prepare(const PrePrepare& pp, ReplicaId proposer,
                          bool nested_pre_verified);
  void count_vote(Instance& inst, MsgType type, ReplicaId from,
                  const crypto::Digest& digest);
  void process_deferred(Instance& inst);
  void evaluate(Instance& inst);
  void deliver(Instance& inst);

  // instance log: one slot per slice member of (stable, stable + window]
  /// The instance of `seq`, created if the log holds none. Precondition:
  /// in_window(seq) and slice_.contains(seq).
  Instance& instance_at(SeqNum seq);
  /// The instance of slice member `seq`, or null if the log holds none.
  Instance* find_instance(SeqNum seq);
  /// Empties an instance's slot.
  void release(Instance& inst);
  /// The slot of slice member `seq`: its slice index modulo the log size.
  std::size_t slot_index(SeqNum seq) const {
    return static_cast<std::size_t>(seq / slice_.stride) % log_.size();
  }
  /// Calls `fn` on every instance the log holds, in ascending seq.
  template <typename Self, typename Fn>
  static void for_each_instance(Self& self, Fn&& fn) {
    const SeqNum last =
        std::min(self.log_top_, self.stable_seq_ + self.config_.window);
    for (SeqNum seq = self.slice_.next_at_or_after(self.stable_seq_ + 1);
         seq <= last; seq += self.slice_.stride) {
      auto& slot = self.log_[self.slot_index(seq)];
      if (slot.seq == seq) fn(slot);
    }
  }

  /// An instance is outstanding while it holds a pre-prepare and is not
  /// delivered. Every change of have_pre_prepare, delivered or proposer
  /// withdraws the instance's share of the counts before and adds it back
  /// after; an erase withdraws it.
  void add_outstanding(const Instance& inst);
  void remove_outstanding(const Instance& inst);
  /// {outstanding, own outstanding} re-derived by a scan, for the
  /// cross-check in tick.
  std::pair<std::size_t, std::size_t> scan_outstanding() const;

  // proposing
  void advance_next_index();
  void maybe_propose();
  void propose_batch(std::vector<Request> batch);
  std::vector<Request> collect_batch(std::uint32_t limit);

  // checkpoints
  void evaluate_checkpoint(SeqNum seq, CheckpointState& state);
  void make_stable(SeqNum seq, const crypto::Digest& digest);

  // view change
  void initiate_view_change(ViewId target);
  void evaluate_view_change(ViewId target);
  void broadcast_new_view(ViewId target);
  void apply_new_view(const NewView& nv);
  void rebuild_ordered_keys();
  ReplicaId coordinator_of(ViewId view) const {
    return static_cast<ReplicaId>(view % config_.num_replicas);
  }

  // verification helpers (count stats; in-order policy lives here)
  bool verify_now(const IncomingMessage& im, crypto::KeyNodeId sender);
  bool verify_request_now(const Request& req);

  bool in_window(SeqNum seq) const {
    return seq > stable_seq_ && seq <= stable_seq_ + config_.window;
  }
  /// An instance one checkpoint interval (at most) above the window: the
  /// sender's stable checkpoint legitimately leads ours by one round, so
  /// the message is deferred until our window slides, not dropped.
  bool just_over_window(SeqNum seq) const {
    return seq > stable_seq_ + config_.window &&
           seq <= stable_seq_ + config_.window + config_.checkpoint_interval;
  }
  /// Parks an over-window message for replay in make_stable. Returns
  /// false (and counts a drop) when the pen is full.
  bool defer_over_window(IncomingMessage im);
  /// Emits a rate-limited StateTransferNeeded for evidence at `observed`.
  void hint_state_transfer(SeqNum observed);
  void note_progress() { last_progress_us_ = now_us_; }
  bool has_outstanding_work() const {
    return !pending_.empty() || outstanding_ != 0;
  }

  /// Funnel for all outgoing effects. On a configured adversary this is
  /// where selective vote omission happens (adversary.hpp); everywhere
  /// else it is a plain push_back.
  void emit(Effect e);
  /// True when this core's replica is the configured adversary and the
  /// fault window is open right now.
  bool adversary_active() const {
    return config_.adversary.applies_to(self_, now_us_);
  }
  /// Equivocation hook: broadcast the real pre-prepare to one half of the
  /// peers and a conflicting well-formed no-op pre-prepare to the other.
  void equivocate_pre_prepare(PrePrepare real);

  const ProtocolConfig config_;
  const ReplicaId self_;
  const SeqSlice slice_;
  MessageVerifier& verifier_;
  const crypto::CryptoProvider& crypto_;

  ViewId view_ = 0;
  bool view_changing_ = false;
  ViewId target_view_ = 0;
  std::map<ViewId, std::map<ReplicaId, ViewChange>> vc_msgs_;
  std::set<ViewId> new_view_sent_;

  SeqNum stable_seq_ = 0;  ///< genesis: everything <= 0 is stable
  crypto::Digest stable_digest_;
  SeqNum next_index_ = 0;  ///< local instance counter i; seq = slice.at(i)

  /// The instance log: ceil(window / stride) slots, slice index i in slot
  /// i % size. Only in-window instances exist, so no two share a slot; a
  /// slot is free while its seq is 0. make_stable resets truncated slots
  /// in place.
  std::vector<Instance> log_;
  std::size_t open_instances_ = 0;
  /// Highest seq ever given a slot; bounds the log walk from above.
  SeqNum log_top_ = 0;
  std::map<SeqNum, CheckpointState> checkpoints_;
  /// Outstanding instances (add_outstanding), and those this replica
  /// proposed: max_active_proposals counts the latter.
  std::size_t outstanding_ = 0;
  std::size_t own_outstanding_ = 0;
  /// Lower bound on the earliest retransmission deadline
  /// (last_activity_us + retransmit_interval_us) of any undelivered
  /// instance or unstable own checkpoint; tick skips the walk before it.
  std::uint64_t retransmit_due_us_ = UINT64_MAX;

  std::deque<Request> pending_;
  /// Over-window holding pen (just_over_window): replayed on window
  /// slide, cleared on view change. Bounded by kMaxOverWindowDeferred.
  std::vector<IncomingMessage> over_window_pen_;
  // COPLINT(allow:det-unordered-member: lookup-only dedup set; never iterated — proposal order comes from pending_, a deque)
  std::unordered_set<std::uint64_t> pending_keys_;
  /// Requests already assigned to an instance (pre-prepare seen); prevents
  /// re-proposing. Cleared per instance at checkpoint GC.
  // COPLINT(allow:det-unordered-member: lookup-only membership set (contains/insert/erase); never iterated)
  std::unordered_set<std::uint64_t> ordered_keys_;
  /// Requests whose client MAC this replica has already checked (direct
  /// receipt); lets followers skip re-verifying them inside proposals.
  // COPLINT(allow:det-unordered-member: lookup-only membership set (contains/insert/erase); never iterated)
  std::unordered_set<std::uint64_t> verified_keys_;

  std::uint64_t now_us_ = 0;
  std::uint64_t last_progress_us_ = 0;
  std::uint64_t last_transfer_hint_us_ = 0;

  std::vector<Effect> effects_;
  CoreStats stats_;
};

}  // namespace copbft::protocol
