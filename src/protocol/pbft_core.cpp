#include "protocol/pbft_core.hpp"

#include <algorithm>
#include <cassert>

#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "common/trace.hpp"

namespace copbft::protocol {
namespace {

/// Lifecycle trace helper: the pillar index is the slice offset.
void trace_instance(trace::Point point, ReplicaId self, const SeqSlice& slice,
                    SeqNum seq, ViewId view) {
  trace::point(point, self, static_cast<std::uint32_t>(slice.offset), seq,
               view, /*client=*/0, /*request=*/0);
}

}  // namespace

PbftCore::PbftCore(ProtocolConfig config, ReplicaId self, SeqSlice slice,
                   MessageVerifier& verifier,
                   const crypto::CryptoProvider& crypto)
    : config_(config),
      self_(self),
      slice_(slice),
      verifier_(verifier),
      crypto_(crypto) {
  config_.validate();
  // Every in-window slice member has a slot of its own.
  log_.resize(static_cast<std::size_t>(
      (config_.window + slice_.stride - 1) / slice_.stride));
  // Sequence number 0 is the genesis marker; real instances start at 1.
  // A slice's first proposable member is its smallest member > 0.
  next_index_ = (slice_.offset == 0) ? 1 : 0;
}

// --------------------------------------------------------------------------
// verification helpers

bool PbftCore::verify_now(const IncomingMessage& im,
                          crypto::KeyNodeId sender) {
  if (im.pre_verified) {
    ++stats_.pre_verified;
    return true;
  }
  ++stats_.macs_verified;
  return verifier_.verify(im, sender);
}

bool PbftCore::verify_request_now(const Request& req) {
  if (verified_keys_.contains(req.key())) {
    ++stats_.request_verifications_skipped;
    return true;
  }
  ++stats_.request_macs_verified;
  if (!verifier_.verify_request(req)) return false;
  verified_keys_.insert(req.key());
  return true;
}

// --------------------------------------------------------------------------
// effect funnel / adversary hooks
//
// Every outgoing effect passes through emit(). For a correct replica that
// is a plain push_back; on the configured adversary it is where selective
// vote omission happens: own PREPAREs/COMMITs addressed to (or broadcast
// towards) the omitted peers are silently dropped. Omission is restricted
// to votes — proposals, checkpoints and view-change traffic still flow, so
// the attack targets exactly the quorum formation the COP slices rely on.

void PbftCore::emit(Effect e) {
  if (adversary_active() && !config_.adversary.omit_votes_to.empty()) {
    const AdversaryConfig& adv = config_.adversary;
    auto is_vote = [](const Message& msg) {
      MsgType t = type_of(msg);
      return t == MsgType::kPrepare || t == MsgType::kCommit;
    };
    if (auto* send = std::get_if<SendTo>(&e)) {
      if (is_vote(send->msg) && adv.omits_to(send->to)) {
        ++stats_.adversary_omissions;
        return;
      }
    } else if (auto* bcast = std::get_if<Broadcast>(&e)) {
      if (is_vote(bcast->msg)) {
        // Fan the broadcast out ourselves so individual recipients can be
        // skipped; hosts treat Broadcast as "send to every other replica".
        for (ReplicaId r = 0; r < config_.num_replicas; ++r) {
          if (r == self_) continue;
          if (adv.omits_to(r)) {
            ++stats_.adversary_omissions;
            continue;
          }
          effects_.push_back(SendTo{r, bcast->msg});
        }
        return;
      }
    }
  }
  effects_.push_back(std::move(e));
}

void PbftCore::equivocate_pre_prepare(PrePrepare real) {
  // Conflicting, well-formed proposal for the same (view, seq): a no-op
  // batch whose digest followers can re-derive, so both variants pass
  // accept_pre_prepare and the conflict only surfaces in the vote phase.
  PrePrepare decoy;
  decoy.view = real.view;
  decoy.seq = real.seq;
  decoy.requests = Batch::Requests{};
  decoy.digest = batch_digest(crypto_, decoy.requests);

  ++stats_.adversary_equivocations;
  // Disjoint halves: low peer ids get the real batch, high ids the decoy.
  std::vector<ReplicaId> peers;
  for (ReplicaId r = 0; r < config_.num_replicas; ++r)
    if (r != self_) peers.push_back(r);
  std::size_t split = peers.size() / 2;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const PrePrepare& variant = (i < split) ? real : decoy;
    emit(SendTo{peers[i], variant});
  }
}

// --------------------------------------------------------------------------
// inputs

void PbftCore::on_request(Request req, std::uint64_t now_us, bool verified) {
  now_us_ = now_us;
  std::uint64_t key = req.key();
  if (pending_keys_.contains(key) || ordered_keys_.contains(key)) {
    ++stats_.duplicates_dropped;
    return;
  }
  if (verified) {
    verified_keys_.insert(key);
  } else if (!verify_request_now(req)) {
    ++stats_.invalid_dropped;
    return;
  }
  // Arrival starts the progress timer if we were idle.
  if (!has_outstanding_work()) note_progress();
  pending_keys_.insert(key);
  pending_.push_back(std::move(req));
  maybe_propose();
}

void PbftCore::on_message(IncomingMessage im, std::uint64_t now_us) {
  now_us_ = now_us;
  switch (type_of(im.msg)) {
    case MsgType::kPrePrepare:
      handle_pre_prepare(std::move(im));
      break;
    case MsgType::kPrepare:
    case MsgType::kCommit:
      handle_vote(std::move(im));
      break;
    case MsgType::kCheckpoint:
      handle_checkpoint(std::move(im));
      break;
    case MsgType::kViewChange:
      handle_view_change(std::move(im));
      break;
    case MsgType::kNewView:
      handle_new_view(std::move(im));
      break;
    case MsgType::kFetch:
      handle_fetch(std::move(im));
      break;
    default:
      // Requests enter via on_request; replies never reach a core.
      ++stats_.invalid_dropped;
      break;
  }
}

// --------------------------------------------------------------------------
// normal case: pre-prepare

void PbftCore::handle_pre_prepare(IncomingMessage im) {
  const PrePrepare& pp = std::get<PrePrepare>(im.msg);
  if (view_changing_ || pp.view != view_ || !slice_.contains(pp.seq) ||
      !in_window(pp.seq)) {
    if (!view_changing_ && pp.view == view_ && slice_.contains(pp.seq) &&
        pp.seq > stable_seq_ + config_.window) {
      // One interval over the window means the proposer's stable
      // checkpoint leads ours by a round that is already in flight:
      // park the proposal for replay once our window slides (dropping
      // it would stall the instance until retransmission). Further out
      // than that, we are stranded.
      if (just_over_window(pp.seq) && defer_over_window(std::move(im)))
        return;
      hint_state_transfer(pp.seq);
    }
    ++stats_.verifications_skipped;
    return;
  }
  ReplicaId proposer = config_.leader_for(pp.view, pp.seq);
  if (proposer == self_) {
    // Someone echoing our own proposal (or forging); never needed.
    ++stats_.verifications_skipped;
    return;
  }
  Instance& inst = instance_at(pp.seq);
  if (inst.have_pre_prepare) {
    // Already have a proposal for this (view, seq); a conflicting one can
    // only come from a faulty leader and a matching one is redundant.
    ++stats_.verifications_skipped;
    return;
  }
  if (!verify_now(im, replica_node(proposer))) {
    ++stats_.invalid_dropped;
    return;
  }
  if (!accept_pre_prepare(pp, proposer, im.pre_verified)) {
    ++stats_.invalid_dropped;
    return;
  }

  // Follower: vote.
  if (!inst.sent_prepare) {
    inst.sent_prepare = true;
    Prepare prep{pp.view, pp.seq, inst.digest, self_, {}};
    inst.prepares.insert(self_);
    emit(Broadcast{prep});
  }
  process_deferred(inst);
  evaluate(inst);
  // Under leader rotation, accepting this slot may make the next slot —
  // ours — proposable.
  maybe_propose();
}

bool PbftCore::accept_pre_prepare(const PrePrepare& pp, ReplicaId proposer,
                                  bool nested_pre_verified) {
  // Content integrity: digest must cover the carried batch.
  if (batch_digest(crypto_, pp.requests) != pp.digest) return false;
  // Client authentication of every carried request (skipped for requests
  // this replica already verified on direct receipt, and for hosts that
  // verified the whole frame out of order).
  if (!nested_pre_verified) {
    for (const Request& req : pp.requests)
      if (!verify_request_now(req)) return false;
  }

  Instance& inst = instance_at(pp.seq);
  remove_outstanding(inst);
  inst.view = pp.view;
  inst.proposer = proposer;
  inst.have_pre_prepare = true;
  add_outstanding(inst);
  inst.digest = pp.digest;
  inst.requests = pp.requests;
  note_activity(inst.last_activity_us);
  trace_instance(trace::Point::kPrePrepare, self_, slice_, pp.seq, pp.view);

  // These requests now have a place in the total order; drop our pending
  // copies and remember them as ordered.
  for (const Request& req : pp.requests) {
    ordered_keys_.insert(req.key());
    pending_keys_.erase(req.key());
  }
  if (!pending_.empty()) {
    std::erase_if(pending_, [&](const Request& r) {
      return ordered_keys_.contains(r.key());
    });
  }
  return true;
}

// --------------------------------------------------------------------------
// normal case: prepare / commit votes

namespace {

struct VoteView {
  MsgType type;
  ViewId view;
  SeqNum seq;
  crypto::Digest digest;
  ReplicaId replica;
};

VoteView vote_view(const Message& msg) {
  if (const auto* p = std::get_if<Prepare>(&msg))
    return {MsgType::kPrepare, p->view, p->seq, p->digest, p->replica};
  const auto& c = std::get<Commit>(msg);
  return {MsgType::kCommit, c.view, c.seq, c.digest, c.replica};
}

}  // namespace

void PbftCore::handle_vote(IncomingMessage im) {
  VoteView v = vote_view(im.msg);
  if (view_changing_ || v.view != view_ || !slice_.contains(v.seq) ||
      !in_window(v.seq) || v.replica == self_ ||
      v.replica >= config_.num_replicas) {
    if (!view_changing_ && v.view == view_ && slice_.contains(v.seq) &&
        v.replica != self_ && v.replica < config_.num_replicas &&
        v.seq > stable_seq_ + config_.window) {
      // See handle_pre_prepare: one interval of skew is normal traffic.
      if (just_over_window(v.seq) && defer_over_window(std::move(im)))
        return;
      hint_state_transfer(v.seq);
    }
    ++stats_.verifications_skipped;
    return;
  }
  Instance& inst = instance_at(v.seq);
  if (inst.delivered) {
    // A vote for an instance we already completed signals a lagging peer
    // (e.g. it lost our commit): help it with a rate-limited re-send.
    if (config_.retransmit_interval_us != 0 && inst.sent_commit &&
        now_us_ >= inst.last_activity_us + config_.retransmit_interval_us) {
      note_activity(inst.last_activity_us);
      emit(SendTo{v.replica, Commit{inst.view, v.seq, inst.digest, self_, {}}});
    }
    ++stats_.verifications_skipped;
    return;
  }
  if (!inst.have_pre_prepare) {
    // Cannot judge relevance yet (digest unknown): defer, verify later and
    // only if still needed. Bounded: at most ~2 messages per peer.
    if (inst.deferred.size() < 4 * config_.num_replicas)
      inst.deferred.push_back(std::move(im));
    return;
  }
  if (v.digest != inst.digest) {
    ++stats_.invalid_dropped;
    return;
  }

  // In-order verification: count only if this vote can still contribute.
  bool needed = (v.type == MsgType::kPrepare)
                    ? (!inst.prepared && v.replica != inst.proposer &&
                       !inst.prepares.contains(v.replica))
                    : (!inst.committed && !inst.commits.contains(v.replica));
  if (!needed) {
    ++stats_.verifications_skipped;
    return;
  }
  if (!verify_now(im, replica_node(v.replica))) {
    ++stats_.invalid_dropped;
    return;
  }
  count_vote(inst, v.type, v.replica, v.digest);
  evaluate(inst);
}

void PbftCore::count_vote(Instance& inst, MsgType type, ReplicaId from,
                          const crypto::Digest& digest) {
  if (digest != inst.digest) return;
  note_activity(inst.last_activity_us);
  if (type == MsgType::kPrepare) {
    if (from != inst.proposer) inst.prepares.insert(from);
  } else {
    inst.commits.insert(from);
  }
}

void PbftCore::process_deferred(Instance& inst) {
  std::vector<IncomingMessage> deferred;
  deferred.swap(inst.deferred);
  for (auto& im : deferred) {
    VoteView v = vote_view(im.msg);
    if (v.view != inst.view) {
      ++stats_.verifications_skipped;
      continue;
    }
    bool needed = (v.type == MsgType::kPrepare)
                      ? (!inst.prepared && v.replica != inst.proposer &&
                         !inst.prepares.contains(v.replica))
                      : (!inst.committed && !inst.commits.contains(v.replica));
    if (!needed || v.digest != inst.digest) {
      ++stats_.verifications_skipped;
      continue;
    }
    if (!verify_now(im, replica_node(v.replica))) {
      ++stats_.invalid_dropped;
      continue;
    }
    count_vote(inst, v.type, v.replica, v.digest);
    evaluate(inst);
  }
}

void PbftCore::evaluate(Instance& inst) {
  if (!inst.have_pre_prepare) return;
  const std::uint32_t two_f = 2 * config_.max_faulty;

  if (!inst.prepared && inst.prepares.size() >= two_f) {
    inst.prepared = true;
    trace_instance(trace::Point::kPrepare, self_, slice_, inst.seq, inst.view);
    if (!inst.sent_commit) {
      inst.sent_commit = true;
      Commit commit{inst.view, inst.seq, inst.digest, self_, {}};
      inst.commits.insert(self_);
      emit(Broadcast{commit});
    }
  }
  // A full 2f+1 commit certificate alone proves that f+1 correct replicas
  // prepared this exact batch, so delivery is safe even if this replica
  // never assembled its own prepare quorum — which is exactly the state a
  // recovering laggard is in: peers only re-send COMMITs for instances
  // they already delivered and garbage-collected their PREPAREs for.
  if (!inst.committed && inst.commits.size() >= config_.quorum()) {
    inst.committed = true;
    // Preserve the invariant "delivered => own COMMIT broadcast": a replica
    // that reaches the commit quorum before its prepare quorum must still
    // announce its commit, or peers that are one vote short of 2f+1 starve
    // once the prepares for this instance are checkpoint-truncated.
    if (!inst.sent_commit) {
      inst.sent_commit = true;
      Commit commit{inst.view, inst.seq, inst.digest, self_, {}};
      inst.commits.insert(self_);
      emit(Broadcast{commit});
    }
    deliver(inst);
  }
}

void PbftCore::deliver(Instance& inst) {
  if (inst.delivered) return;
  remove_outstanding(inst);
  inst.delivered = true;
  trace_instance(trace::Point::kCommit, self_, slice_, inst.seq, inst.view);
  note_progress();
  ++stats_.instances_delivered;
  stats_.requests_delivered += inst.requests.size();
  for (const Request& req : inst.requests) verified_keys_.erase(req.key());
  emit(Deliver{inst.seq, inst.view, inst.requests.shared()});
  // A finished own proposal may free a slot under max_active_proposals.
  maybe_propose();
}

PbftCore::Instance& PbftCore::instance_at(SeqNum seq) {
  assert(in_window(seq) && slice_.contains(seq));
  Instance& inst = log_[slot_index(seq)];
  if (inst.seq != seq) {
    // Two in-window members never share a slot, and make_stable freed
    // every truncated one.
    assert(inst.seq == 0);
    inst.seq = seq;
    inst.view = view_;
    inst.proposer = config_.leader_for(view_, seq);
    note_activity(inst.last_activity_us);
    ++open_instances_;
    log_top_ = std::max(log_top_, seq);
  }
  return inst;
}

PbftCore::Instance* PbftCore::find_instance(SeqNum seq) {
  if (!in_window(seq)) return nullptr;
  Instance& inst = log_[slot_index(seq)];
  return inst.seq == seq ? &inst : nullptr;
}

void PbftCore::release(Instance& inst) {
  remove_outstanding(inst);
  inst = Instance{};
  --open_instances_;
}

void PbftCore::add_outstanding(const Instance& inst) {
  if (!inst.have_pre_prepare || inst.delivered) return;
  ++outstanding_;
  if (inst.proposer == self_) ++own_outstanding_;
}

void PbftCore::remove_outstanding(const Instance& inst) {
  if (!inst.have_pre_prepare || inst.delivered) return;
  --outstanding_;
  if (inst.proposer == self_) --own_outstanding_;
}

std::pair<std::size_t, std::size_t> PbftCore::scan_outstanding() const {
  std::size_t all = 0, own = 0;
  for_each_instance(*this, [&](const Instance& inst) {
    if (!inst.have_pre_prepare || inst.delivered) return;
    ++all;
    if (inst.proposer == self_) ++own;
  });
  return {all, own};
}

// --------------------------------------------------------------------------
// proposing

/// Advances the proposal index past every slot that already has an
/// accepted proposal (ours or, under rotation, a peer's). Never skips an
/// empty slot: jumping over one would leave a hole only its leader could
/// fill but whose index we would have abandoned.
void PbftCore::advance_next_index() {
  while (true) {
    const Instance* inst = find_instance(slice_.at(next_index_));
    if (inst == nullptr || !inst->have_pre_prepare) return;
    ++next_index_;
  }
}

void PbftCore::maybe_propose() {
  if (view_changing_) return;
  while (!pending_.empty()) {
    advance_next_index();
    SeqNum seq = slice_.at(next_index_);
    if (config_.leader_for(view_, seq) != self_) return;
    if (!in_window(seq)) return;
    if (config_.max_active_proposals != 0 &&
        own_outstanding_ >= config_.max_active_proposals)
      return;
    std::vector<Request> batch = collect_batch(config_.max_batch);
    if (batch.empty()) return;
    propose_batch(std::move(batch));
  }
}

std::vector<Request> PbftCore::collect_batch(std::uint32_t limit) {
  std::vector<Request> batch;
  while (batch.size() < limit && !pending_.empty()) {
    Request req = std::move(pending_.front());
    pending_.pop_front();
    pending_keys_.erase(req.key());
    if (ordered_keys_.contains(req.key())) {
      ++stats_.duplicates_dropped;
      continue;
    }
    batch.push_back(std::move(req));
  }
  return batch;
}

void PbftCore::propose_batch(std::vector<Request> batch) {
  SeqNum seq = slice_.at(next_index_);
  ++next_index_;
  ++stats_.proposals;
  if (batch.empty()) ++stats_.noop_proposals;
  stats_.requests_proposed += batch.size();

  PrePrepare pp;
  pp.view = view_;
  pp.seq = seq;
  pp.digest = batch_digest(crypto_, batch);
  pp.requests = std::move(batch);

  Instance& inst = instance_at(seq);
  remove_outstanding(inst);
  inst.view = view_;
  inst.proposer = self_;
  inst.have_pre_prepare = true;
  add_outstanding(inst);
  inst.digest = pp.digest;
  inst.requests = pp.requests;
  for (const Request& req : inst.requests) ordered_keys_.insert(req.key());
  trace_instance(trace::Point::kPrePrepare, self_, slice_, seq, view_);

  if (!pp.requests.empty() && adversary_active() && config_.adversary.equivocate)
    equivocate_pre_prepare(std::move(pp));
  else
    emit(Broadcast{std::move(pp)});
  process_deferred(inst);
  evaluate(inst);
}

void PbftCore::fill_gap_upto(SeqNum seq, std::uint64_t now_us,
                             SeqNum frontier) {
  now_us_ = now_us;
  if (view_changing_) return;
  // The execution stage still needs `frontier`, but everything at or below
  // our stable checkpoint was truncated cluster-wide (stability requires
  // 2f+1 votes, so every correct peer GC'd it too). No retransmission or
  // gap fill can produce those batches again — only a state transfer.
  if (frontier != 0 && frontier <= stable_seq_) {
    hint_state_transfer(stable_seq_);
    return;
  }
  SeqNum target = std::min(seq, stable_seq_ + config_.window);
  while (true) {
    advance_next_index();
    SeqNum next = slice_.at(next_index_);
    if (next > target) return;
    if (config_.leader_for(view_, next) != self_) {
      // Not ours to fill, and we must not jump over it: the leading
      // replica's execution stage observes the same gap and fills it.
      return;
    }
    std::vector<Request> batch = collect_batch(config_.max_batch);
    propose_batch(std::move(batch));  // empty batch => no-op instance
  }
}

void PbftCore::fetch_missing_upto(SeqNum upto, std::uint64_t now_us) {
  now_us_ = now_us;
  if (view_changing_) return;
  SeqNum target = std::min(upto, stable_seq_ + config_.window);
  for (SeqNum seq = slice_.next_at_or_after(stable_seq_ + 1); seq <= target;
       seq += slice_.stride) {
    Instance& inst = instance_at(seq);
    if (inst.have_pre_prepare) continue;
    if (inst.proposer == self_) continue;  // ours to propose, not to fetch
    note_activity(inst.last_activity_us);
    emit(SendTo{inst.proposer, Fetch{view_, seq, self_, {}}});
  }
}

bool PbftCore::defer_over_window(IncomingMessage im) {
  // One checkpoint interval of replica-message traffic at most: each
  // instance carries one pre-prepare plus two votes per peer.
  const std::size_t cap = static_cast<std::size_t>(
      config_.checkpoint_interval * (1 + 2 * (config_.num_replicas - 1)));
  if (over_window_pen_.size() >= cap) {
    ++stats_.over_window_dropped;
    return false;
  }
  ++stats_.over_window_deferred;
  over_window_pen_.push_back(std::move(im));
  return true;
}

void PbftCore::hint_state_transfer(SeqNum observed) {
  const std::uint64_t interval = config_.retransmit_interval_us != 0
                                     ? config_.retransmit_interval_us
                                     : 200'000;
  if (last_transfer_hint_us_ != 0 &&
      now_us_ < last_transfer_hint_us_ + interval)
    return;
  last_transfer_hint_us_ = now_us_;
  ++stats_.state_transfer_hints;
  emit(StateTransferNeeded{observed});
}

// --------------------------------------------------------------------------
// checkpoints

void PbftCore::start_checkpoint(SeqNum seq, const crypto::Digest& digest,
                                std::uint64_t now_us) {
  now_us_ = now_us;
  // Paper §4.2.2: hosts agree checkpoints only at interval boundaries; a
  // misaligned sequence number means the execution stage and the protocol
  // core disagree about where the windows are.
  COP_INVARIANT(seq != 0 && seq % config_.checkpoint_interval == 0,
                "checkpoint requested at seq %llu, not a multiple of the "
                "checkpoint interval %llu",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(config_.checkpoint_interval));
  if (seq <= stable_seq_) return;
  CheckpointState& state = checkpoints_[seq];
  if (state.have_own) return;
  state.have_own = true;
  note_activity(state.last_activity_us);
  state.votes[self_] = digest;
  emit(Broadcast{CheckpointMsg{seq, digest, self_, {}}});
  evaluate_checkpoint(seq, state);
}

void PbftCore::handle_checkpoint(IncomingMessage im) {
  const CheckpointMsg& cp = std::get<CheckpointMsg>(im.msg);
  if (cp.seq <= stable_seq_ || cp.replica == self_ ||
      cp.replica >= config_.num_replicas) {
    ++stats_.verifications_skipped;
    return;
  }
  // A checkpoint vote past our whole window means the voter's execution —
  // and, by the vote, the cluster's — outran everything we can still
  // order. Keep processing (votes may make us stable directly), but flag
  // the laggardness. Rate-limiting keeps this cheap.
  if (cp.seq > stable_seq_ + config_.window) hint_state_transfer(cp.seq);
  CheckpointState& state = checkpoints_[cp.seq];
  if (state.stable || state.votes.contains(cp.replica)) {
    ++stats_.verifications_skipped;
    return;
  }
  if (!verify_now(im, replica_node(cp.replica))) {
    ++stats_.invalid_dropped;
    return;
  }
  state.votes[cp.replica] = cp.digest;
  note_activity(state.last_activity_us);
  evaluate_checkpoint(cp.seq, state);
}

void PbftCore::evaluate_checkpoint(SeqNum seq, CheckpointState& state) {
  if (state.stable) return;
  // Count matching digests; stability needs 2f+1 equal votes.
  std::map<crypto::Digest, std::uint32_t> tally;
  for (const auto& [replica, digest] : state.votes) ++tally[digest];
  for (const auto& [digest, count] : tally) {
    if (count >= config_.quorum()) {
      state.stable = true;
      ++stats_.checkpoints_stable;
      std::vector<ReplicaId> voters;
      voters.reserve(state.votes.size());
      for (const auto& [replica, d] : state.votes)
        if (d == digest) voters.push_back(replica);
      emit(CheckpointStable{seq, digest, std::move(voters)});
      make_stable(seq, digest);
      return;
    }
  }
}

void PbftCore::make_stable(SeqNum seq, const crypto::Digest& digest) {
  if (seq <= stable_seq_) return;
  // Garbage-collect everything at or below the stable point (the walk
  // covers the old window, so it runs before stable_seq_ moves).
  for_each_instance(*this, [&](Instance& inst) {
    if (inst.seq > seq) return;
    for (const Request& req : inst.requests) ordered_keys_.erase(req.key());
    release(inst);
  });
  stable_seq_ = seq;
  stable_digest_ = digest;
  note_progress();

  for (auto it = checkpoints_.begin();
       it != checkpoints_.end() && it->first <= seq;)
    it = checkpoints_.erase(it);

  // Skip over sequence numbers that became stale while we were behind.
  SeqNum first_free = slice_.next_at_or_after(seq + 1);
  SeqNum min_index = (first_free - slice_.offset) / slice_.stride;
  next_index_ = std::max(next_index_, min_index);

  maybe_propose();  // the window slid forward

  // The slide may have brought parked over-window messages into range:
  // replay them through the normal dispatch. Anything still out of range
  // (or stale) parks again or drops in its handler.
  if (!over_window_pen_.empty()) {
    std::vector<IncomingMessage> replay;
    replay.swap(over_window_pen_);
    for (IncomingMessage& m : replay) on_message(std::move(m), now_us_);
  }
}

void PbftCore::note_checkpoint_stable(SeqNum seq,
                                      const crypto::Digest& digest) {
  // Stability notices originate from a sibling pillar's agreed checkpoint,
  // so they inherit the same interval alignment (paper §4.2.2).
  COP_INVARIANT(seq != 0 && seq % config_.checkpoint_interval == 0,
                "stability notice for seq %llu, not a multiple of the "
                "checkpoint interval %llu",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(config_.checkpoint_interval));
  make_stable(seq, digest);
}

// --------------------------------------------------------------------------
// view change

void PbftCore::tick(std::uint64_t now_us) {
  now_us_ = now_us;
  COP_INVARIANT(scan_outstanding() ==
                    std::make_pair(outstanding_, own_outstanding_),
                "outstanding-instance counts %zu/%zu (all/own) disagree with "
                "the instance log",
                outstanding_, own_outstanding_);
  if (config_.retransmit_interval_us != 0 && !view_changing_ &&
      now_us_ >= retransmit_due_us_)
    retransmit_stalled();
  if (config_.view_change_timeout_us == 0) return;  // disabled
  if (!has_outstanding_work()) {
    note_progress();
    return;
  }
  if (now_us_ >= last_progress_us_ + config_.view_change_timeout_us) {
    ViewId target = view_changing_ ? target_view_ + 1 : view_ + 1;
    initiate_view_change(target);
  }
}

void PbftCore::retransmit_stalled() {
  const std::uint64_t interval = config_.retransmit_interval_us;
  // The bound takes every undelivered instance; the log holds in-window
  // ones only.
  std::uint64_t due = UINT64_MAX;
  for_each_instance(*this, [&](Instance& inst) {
    if (inst.delivered) return;
    const SeqNum seq = inst.seq;
    const bool stalled = now_us_ >= inst.last_activity_us + interval;
    if (stalled) inst.last_activity_us = now_us_;
    due = std::min(due, inst.last_activity_us + interval);
    if (!stalled) return;
    if (inst.have_pre_prepare) {
      if (inst.proposer == self_) {
        PrePrepare pp;
        pp.view = inst.view;
        pp.seq = seq;
        pp.digest = inst.digest;
        pp.requests = inst.requests;
        emit(Broadcast{std::move(pp)});
      }
      if (inst.sent_prepare)
        emit(Broadcast{Prepare{inst.view, seq, inst.digest, self_, {}}});
      if (inst.sent_commit)
        emit(Broadcast{Commit{inst.view, seq, inst.digest, self_, {}}});
    } else if (inst.proposer != self_) {
      // The proposal never arrived (whether or not votes did — after a
      // checkpoint install there may be none): ask its proposer.
      emit(SendTo{inst.proposer, Fetch{view_, seq, self_, {}}});
    }
  });
  for (auto& [seq, state] : checkpoints_) {
    if (state.stable || !state.have_own) continue;
    const bool stalled = now_us_ >= state.last_activity_us + interval;
    if (stalled) state.last_activity_us = now_us_;
    due = std::min(due, state.last_activity_us + interval);
    if (stalled)
      emit(Broadcast{CheckpointMsg{seq, state.votes.at(self_), self_, {}}});
  }
  retransmit_due_us_ = due;
}

void PbftCore::handle_fetch(IncomingMessage im) {
  const Fetch& fetch = std::get<Fetch>(im.msg);
  if (fetch.replica == self_ || fetch.replica >= config_.num_replicas ||
      !slice_.contains(fetch.seq)) {
    ++stats_.verifications_skipped;
    return;
  }
  const Instance* inst = find_instance(fetch.seq);
  if (inst == nullptr || !inst->have_pre_prepare || inst->proposer != self_) {
    ++stats_.verifications_skipped;
    return;
  }
  if (!verify_now(im, replica_node(fetch.replica))) {
    ++stats_.invalid_dropped;
    return;
  }
  PrePrepare pp;
  pp.view = inst->view;
  pp.seq = fetch.seq;
  pp.digest = inst->digest;
  pp.requests = inst->requests;
  emit(SendTo{fetch.replica, std::move(pp)});
}

void PbftCore::initiate_view_change(ViewId target) {
  if (target <= view_) return;
  if (view_changing_ && target <= target_view_) return;
  view_changing_ = true;
  target_view_ = target;
  note_progress();
  ++stats_.view_changes_started;

  ViewChange vc;
  vc.new_view = target;
  vc.stable_seq = stable_seq_;
  vc.stable_digest = stable_digest_;
  vc.replica = self_;
  for_each_instance(*this, [&](const Instance& inst) {
    if (!inst.prepared) return;
    PreparedProof proof;
    proof.view = inst.view;
    proof.seq = inst.seq;
    proof.digest = inst.digest;
    proof.requests = inst.requests;
    vc.prepared.push_back(std::move(proof));
  });
  vc_msgs_[target][self_] = vc;
  emit(Broadcast{std::move(vc)});
  evaluate_view_change(target);
}

void PbftCore::handle_view_change(IncomingMessage im) {
  const ViewChange& vc = std::get<ViewChange>(im.msg);
  if (vc.new_view <= view_ || vc.replica == self_ ||
      vc.replica >= config_.num_replicas) {
    ++stats_.verifications_skipped;
    return;
  }
  auto& votes = vc_msgs_[vc.new_view];
  if (votes.contains(vc.replica)) {
    ++stats_.verifications_skipped;
    return;
  }
  if (!verify_now(im, replica_node(vc.replica))) {
    ++stats_.invalid_dropped;
    return;
  }
  votes[vc.replica] = vc;

  // Liveness: join a view change supported by >= f+1 others even without a
  // local timeout (at least one of them is correct).
  if (!view_changing_ || target_view_ < vc.new_view) {
    if (votes.size() >= config_.weak_quorum())
      initiate_view_change(vc.new_view);
  }
  evaluate_view_change(vc.new_view);
}

void PbftCore::evaluate_view_change(ViewId target) {
  if (coordinator_of(target) != self_) return;
  if (new_view_sent_.contains(target)) return;
  auto it = vc_msgs_.find(target);
  if (it == vc_msgs_.end() || it->second.size() < config_.quorum()) return;
  new_view_sent_.insert(target);
  broadcast_new_view(target);
}

void PbftCore::broadcast_new_view(ViewId target) {
  const auto& votes = vc_msgs_.at(target);

  // The new starting point is the highest stable checkpoint any quorum
  // member reported; everything prepared above it is re-proposed, gaps in
  // this slice become no-ops.
  SeqNum base = stable_seq_;
  std::map<SeqNum, const PreparedProof*> best;
  for (const auto& [replica, vc] : votes) {
    base = std::max(base, vc.stable_seq);
    for (const auto& proof : vc.prepared) {
      auto [bit, inserted] = best.try_emplace(proof.seq, &proof);
      if (!inserted && proof.view > bit->second->view) bit->second = &proof;
    }
  }
  SeqNum top = base;
  for (const auto& [seq, proof] : best) top = std::max(top, seq);

  NewView nv;
  nv.view = target;
  nv.replica = self_;
  for (SeqNum seq = slice_.next_at_or_after(base + 1); seq <= top;
       seq += slice_.stride) {
    PrePrepare pp;
    pp.view = target;
    pp.seq = seq;
    auto bit = best.find(seq);
    if (bit != best.end()) {
      pp.requests = bit->second->requests;
      pp.digest = bit->second->digest;
    } else {
      pp.digest = batch_digest(crypto_, Batch::Requests{});
    }
    nv.pre_prepares.push_back(std::move(pp));
  }
  emit(Broadcast{nv});
  apply_new_view(nv);
}

void PbftCore::handle_new_view(IncomingMessage im) {
  const NewView& nv = std::get<NewView>(im.msg);
  if (nv.view <= view_ || nv.replica != coordinator_of(nv.view)) {
    ++stats_.verifications_skipped;
    return;
  }
  if (!verify_now(im, replica_node(nv.replica))) {
    ++stats_.invalid_dropped;
    return;
  }
  apply_new_view(nv);
}

void PbftCore::apply_new_view(const NewView& nv) {
  view_ = nv.view;
  target_view_ = nv.view;
  view_changing_ = false;
  note_progress();
  ++stats_.view_changes_completed;
  vc_msgs_.erase(vc_msgs_.begin(), vc_msgs_.upper_bound(nv.view));
  over_window_pen_.clear();  // stale-view messages; peers will retransmit
  emit(ViewChanged{view_});

  const ReplicaId coordinator = nv.replica;
  SeqNum top = stable_seq_;

  for (const PrePrepare& pp : nv.pre_prepares) {
    top = std::max(top, pp.seq);
    if (pp.seq <= stable_seq_ || !slice_.contains(pp.seq)) continue;
    if (!in_window(pp.seq)) {
      // The new view's base leads our stable checkpoint by more than the
      // window: the log cannot hold this instance, and only a state
      // transfer brings us to where it can.
      hint_state_transfer(pp.seq);
      continue;
    }
    Instance& inst = instance_at(pp.seq);
    if (inst.delivered) {
      // Already executed here. PBFT safety guarantees any re-proposal
      // carries the same batch; just refresh the view bookkeeping.
      inst.view = nv.view;
      continue;
    }
    // (Re-)initialize the instance under the new view's authority.
    remove_outstanding(inst);
    inst.view = nv.view;
    inst.proposer = coordinator;
    inst.have_pre_prepare = true;
    add_outstanding(inst);
    inst.digest = pp.digest;
    inst.requests = pp.requests;
    inst.prepares.clear();
    inst.commits.clear();
    inst.prepared = false;
    inst.committed = false;
    inst.sent_prepare = false;
    inst.sent_commit = false;
    inst.deferred.clear();

    for (const Request& req : pp.requests) {
      ordered_keys_.insert(req.key());
      pending_keys_.erase(req.key());
    }
    if (coordinator != self_) {
      inst.sent_prepare = true;
      inst.prepares.insert(self_);
      emit(Broadcast{Prepare{nv.view, pp.seq, inst.digest, self_, {}}});
    }
    evaluate(inst);
  }

  // Instances above the new-view horizon that were in flight in the old
  // view are void; their requests go back through the normal path (client
  // retransmission covers any we did not keep).
  for_each_instance(*this, [&](Instance& inst) {
    if (inst.seq > top && inst.view < nv.view && !inst.delivered)
      release(inst);
  });
  rebuild_ordered_keys();

  if (!pending_.empty()) {
    std::erase_if(pending_, [&](const Request& r) {
      bool dup = ordered_keys_.contains(r.key());
      if (dup) pending_keys_.erase(r.key());
      return dup;
    });
  }

  SeqNum first_free = slice_.next_at_or_after(top + 1);
  next_index_ = std::max(next_index_, (first_free - slice_.offset) / slice_.stride);
  maybe_propose();
}

void PbftCore::rebuild_ordered_keys() {
  ordered_keys_.clear();
  for_each_instance(*this, [&](const Instance& inst) {
    for (const Request& req : inst.requests) ordered_keys_.insert(req.key());
  });
}

}  // namespace copbft::protocol
