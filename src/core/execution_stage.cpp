#include "core/execution_stage.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "common/hot.hpp"
#include "common/logging.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "core/checkpoint_artifact.hpp"
#include "core/outbound.hpp"
#include "protocol/wire.hpp"

namespace copbft::core {
namespace {

constexpr std::size_t kReplyCachePerClient = 32;
constexpr std::uint64_t kDedupWindow = 4096;

// Slot state encoding (see ReorderRing in the header).
constexpr std::uint64_t slot_published(protocol::SeqNum seq) {
  return static_cast<std::uint64_t>(seq) << 1;
}
constexpr std::uint64_t slot_claimed(protocol::SeqNum seq) {
  return (static_cast<std::uint64_t>(seq) << 1) | 1;
}

/// FNV-1a over the request keys. Two commits for the same sequence number
/// must carry the same batch; a fingerprint mismatch on a duplicate means
/// the total order forked. The stored fingerprint lets any pillar run the
/// check against a slot another pillar published without touching the
/// (non-atomic) payload.
std::uint64_t batch_hash(const CommittedBatch& b) {
  std::uint64_t h = 1469598103934665603ULL;
  if (!b.requests) return h;
  for (const auto& r : *b.requests) {
    std::uint64_t k = r.key();
    for (int i = 0; i < 8; ++i) {
      h ^= (k >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// (request count << 1) | is_noop — the cheap half of the fingerprint.
std::uint64_t batch_meta(const CommittedBatch& b) {
  const bool noop = !b.requests || b.requests->empty();
  const std::uint64_t n = noop ? 0 : b.requests->size();
  return (n << 1) | (noop ? 1 : 0);
}

std::string exec_metric(ReplicaId self, const char* name) {
  return "replica" + std::to_string(self) + ".exec." + name;
}

/// Live sequence numbers span at most [frontier, stable + window]; the
/// frontier can itself trail stability, so 2x window plus slack covers
/// every buffered seq with distinct slots. Clamped so a pathological
/// window cannot exhaust memory — collisions are then legal and resolved
/// by publish().
std::size_t ring_slots(std::uint64_t window) {
  const std::uint64_t want = 2 * window + 2;
  std::size_t n = 64;
  while (n < want && n < (std::size_t{1} << 20)) n <<= 1;
  return n;
}

}  // namespace

// --------------------------------------------------------------------------
// ReorderRing — lock-free slot ring, one pillar writer per slot (slice
// partition), single consumer (the stage thread).

ExecutionStage::ReorderRing::ReorderRing(std::uint64_t window)
    : slots_(ring_slots(window)), mask_(slots_.size() - 1) {}

COP_HOT ExecutionStage::ReorderRing::PublishResult
ExecutionStage::ReorderRing::publish(CommittedBatch&& batch,
                                     protocol::SeqNum frontier,
                                     std::uint64_t hash, std::uint64_t meta) {
  Slot& s = slots_[index(batch.seq)];
  const std::uint64_t mine_pub = slot_published(batch.seq);
  const std::uint64_t mine_claim = slot_claimed(batch.seq);
  std::uint64_t cur = s.state.load(std::memory_order_seq_cst);
  while (true) {
    if (cur == mine_pub) {
      // Redelivery of a seq someone already published. Read the stored
      // fingerprint and validate it by re-reading the state word: if the
      // slot changed under us (consumed/reclaimed mid-read), the
      // fingerprint may belong to another batch and the check is skipped.
      PublishResult res;
      res.outcome = Outcome::kDuplicate;
      res.stored_hash = s.hash.load(std::memory_order_relaxed);
      res.stored_meta = s.meta.load(std::memory_order_relaxed);
      res.fingerprint_valid =
          s.state.load(std::memory_order_seq_cst) == mine_pub;
      return res;
    }
    if (cur == mine_claim) {
      // Another writer is mid-publishing the same seq (concurrent
      // redelivery); nothing to verify yet.
      return {Outcome::kDuplicate, false, 0, 0};
    }
    if (cur == 0) {
      if (!s.state.compare_exchange_strong(cur, mine_claim,
                                           std::memory_order_seq_cst))
        continue;  // cur reloaded
      s.hash.store(hash, std::memory_order_relaxed);
      s.meta.store(meta, std::memory_order_relaxed);
      s.batch.emplace(std::move(batch));
      count_.fetch_add(1, std::memory_order_relaxed);
      s.state.store(mine_pub, std::memory_order_seq_cst);
      return {Outcome::kStored, false, 0, 0};
    }
    if (cur & 1) {
      // Claimed by a writer for a *different* seq — only reachable when
      // distinct live seqs collide on one slot (clamped ring). Drop ours;
      // gap detection re-fetches it.
      return {Outcome::kDroppedSelf, false, 0, 0};
    }
    const protocol::SeqNum occupant = cur >> 1;
    if (occupant < frontier) {
      // Stale leftover below the execution frontier (e.g. dropped by a
      // checkpoint install sweep that lost its CAS): reclaim in place.
      if (!s.state.compare_exchange_strong(cur, mine_claim,
                                           std::memory_order_seq_cst))
        continue;
      s.hash.store(hash, std::memory_order_relaxed);
      s.meta.store(meta, std::memory_order_relaxed);
      s.batch.emplace(std::move(batch));  // destroys the stale payload
      s.state.store(mine_pub, std::memory_order_seq_cst);
      return {Outcome::kStored, false, 0, 0};
    }
    if (occupant < batch.seq) {
      // Ring wrap-around with a live lower occupant: it executes first,
      // keep it and drop ours; gap detection re-fetches.
      return {Outcome::kDroppedSelf, false, 0, 0};
    }
    // Live higher occupant: evict it, ours executes first.
    if (!s.state.compare_exchange_strong(cur, mine_claim,
                                         std::memory_order_seq_cst))
      continue;
    s.hash.store(hash, std::memory_order_relaxed);
    s.meta.store(meta, std::memory_order_relaxed);
    s.batch.emplace(std::move(batch));
    s.state.store(mine_pub, std::memory_order_seq_cst);
    return {Outcome::kEvictedOther, false, 0, 0};
  }
}

COP_HOT std::optional<CommittedBatch> ExecutionStage::ReorderRing::take(
    protocol::SeqNum seq) {
  Slot& s = slots_[index(seq)];
  std::uint64_t want = slot_published(seq);
  if (s.state.load(std::memory_order_seq_cst) != want) return std::nullopt;
  // Claim before moving the payload out: writer CASes expect `published`
  // and fail while we hold the claim, so eviction/reclaim can never race
  // the move.
  if (!s.state.compare_exchange_strong(want, slot_claimed(seq),
                                       std::memory_order_seq_cst))
    return std::nullopt;
  std::optional<CommittedBatch> out = std::move(s.batch);
  s.batch.reset();
  count_.fetch_sub(1, std::memory_order_relaxed);
  // Freed before the caller advances next_seq, so the slot is reusable by
  // the time any writer can consider this seq stale.
  s.state.store(0, std::memory_order_seq_cst);
  return out;
}

void ExecutionStage::ReorderRing::discard_upto(protocol::SeqNum upto) {
  for (Slot& s : slots_) {
    std::uint64_t cur = s.state.load(std::memory_order_seq_cst);
    if (cur == 0 || (cur & 1)) continue;  // free, or a writer owns it
    const protocol::SeqNum occupant = cur >> 1;
    if (occupant > upto) continue;
    if (!s.state.compare_exchange_strong(cur, slot_claimed(occupant),
                                         std::memory_order_seq_cst))
      continue;  // republished concurrently; the writer self-heals later
    s.batch.reset();
    count_.fetch_sub(1, std::memory_order_relaxed);
    s.state.store(0, std::memory_order_seq_cst);
  }
}

// --------------------------------------------------------------------------

ExecutionStage::ExecutionStage(ReplicaId self,
                               const ReplicaRuntimeConfig& config,
                               app::Service& service,
                               const crypto::CryptoProvider& crypto,
                               transport::Transport& transport)
    : self_(self),
      config_(config),
      service_(service),
      crypto_(crypto),
      transport_(transport),
      reorder_(config.protocol.window),
      lanes_(new PillarLane[std::max<std::uint32_t>(config.num_pillars, 1)]),
      ckpt_mail_(
          new CkptMailbox[std::max<std::uint32_t>(config.num_pillars, 1)]),
      install_queue_(config.queue_capacity),
      m_reorder_depth_(metrics::MetricsRegistry::global().gauge(
          exec_metric(self, "reorder_depth"))),
      m_drift_(
          metrics::MetricsRegistry::global().gauge(exec_metric(self, "drift"))),
      m_batches_executed_(metrics::MetricsRegistry::global().counter(
          exec_metric(self, "batches_executed"))),
      m_requests_executed_(metrics::MetricsRegistry::global().counter(
          exec_metric(self, "requests_executed"))),
      m_replies_sent_(metrics::MetricsRegistry::global().counter(
          exec_metric(self, "replies_sent"))),
      m_execute_us_(metrics::MetricsRegistry::global().histogram(
          exec_metric(self, "execute_us"))) {
  // Commit admission no longer queues; the instrumented queue is the
  // (rare) state-transfer install lane.
  install_queue_.instrument(
      metrics::MetricsRegistry::global().gauge(exec_metric(self, "queue_depth")),
      metrics::MetricsRegistry::global().counter(
          exec_metric(self, "queue_blocked_pushes")));
}

void ExecutionStage::start() {
  thread_ = named_thread("exec", [this] { run(); });
}

void ExecutionStage::stop() {
  stop_requested_.store(true, std::memory_order_release);
  install_queue_.close();
  wake_exec();
  if (thread_.joinable()) thread_.join();
}

bool ExecutionStage::submit_install(InstallState install) {
  const bool ok = install_queue_.push(std::move(install));
  wake_exec();
  return ok;
}

ExecutionStats ExecutionStage::stats() const {
  ExecutionStats out;
  // Acquire loads pairing with the stage thread's release stores. The
  // progress counters are read first: an observer that sees a request
  // counted is then guaranteed to also see everything counted before it
  // (e.g. the matching reply omission — tests sum both).
  out.requests_executed = n_requests_executed_.get();
  out.last_executed_seq = n_last_executed_seq_.get();
  out.batches_executed = n_batches_executed_.get();
  out.noops_executed = n_noops_executed_.get();
  out.duplicates_suppressed = n_duplicates_suppressed_.get();
  out.replies_sent = n_replies_sent_.get();
  out.replies_offloaded = n_replies_offloaded_.get();
  out.replies_omitted = n_replies_omitted_.get();
  out.checkpoints_triggered = n_checkpoints_triggered_.get();
  out.gap_fills_requested = n_gap_fills_requested_.get();
  out.reorder_slot_drops = n_reorder_slot_drops_.get();
  out.state_installs = n_state_installs_.get();
  out.installs_rejected = n_installs_rejected_.get();
  out.installed_seq = n_installed_seq_.get();
  return out;
}

void ExecutionStage::wake_exec() {
  {
    MutexLock lock(wake_mutex_);
    wake_pending_ = true;
  }
  wake_cv_.notify_one();
}

void ExecutionStage::run() {
  // The wait below is a fallback heartbeat, not the main wake path:
  // pillars notify whenever they publish the execution frontier. It still
  // bounds the stage's reaction to events with no publish edge (e.g. an
  // install that unblocks an already-buffered frontier on a quiet system).
  const auto poll = std::chrono::microseconds(
      std::max<std::uint64_t>(config_.gap_timeout_us / 2, 500));
  while (true) {
    while (auto install = install_queue_.try_pop())
      handle_install(std::move(*install));
    apply_ready();
    if (stop_requested_.load(std::memory_order_acquire) &&
        install_queue_.empty())
      return;
    CvLock lock(wake_mutex_);
    if (!wake_pending_) wake_cv_.wait_for(lock, poll);
    wake_pending_ = false;
  }
}

COP_HOT bool ExecutionStage::admit(CommittedBatch batch) {
  const std::uint32_t np = config_.num_pillars;
  COP_INVARIANT(batch.seq != 0,
                "sequence number 0 is genesis and must never commit "
                "(pillar %u)",
                batch.pillar);
  // Paper §4.2.1: pillar p owns exactly the numbers c(p,i) = p + i*NP.
  // This partition is also what makes pillar-side admission single-writer
  // per ring slot: distinct pillars can never contend on a live slot.
  COP_INVARIANT(batch.pillar < np && batch.seq % np == batch.pillar,
                "seq %llu delivered by pillar %u breaks the c(p,i)=p+i*NP "
                "partition (NP=%u)",
                static_cast<unsigned long long>(batch.seq), batch.pillar, np);

  // seq_cst pairs with take()/apply_ready: any occupant below this
  // snapshot is no longer consumable by the stage and is safe to reclaim.
  const protocol::SeqNum frontier = next_seq_.load(std::memory_order_seq_cst);
  if (batch.seq < frontier) return true;  // stale redelivery

  // Paper §3.4/§4.2.2: commits may only run `window` past the stable
  // checkpoint. The bound is checked against the emitting core's stable
  // seq (carried in the batch), not this stage's frontier: a replica that
  // learns stability from its peers' votes can legitimately buffer
  // commits further ahead than its own execution has reached.
  COP_INVARIANT(
      batch.seq <= batch.stable_basis + config_.protocol.window,
      "seq %llu exceeds the checkpoint-window drift bound: stable "
      "checkpoint %llu + window %llu",
      static_cast<unsigned long long>(batch.seq),
      static_cast<unsigned long long>(batch.stable_basis),
      static_cast<unsigned long long>(config_.protocol.window));

  const protocol::SeqNum seq = batch.seq;
  const auto view = batch.view;
  const std::uint32_t pillar = batch.pillar < np ? batch.pillar : 0;
  const std::uint64_t hash = batch_hash(batch);
  const std::uint64_t meta = batch_meta(batch);
  m_drift_.set(static_cast<std::int64_t>(seq - batch.stable_basis));

  const auto res = reorder_.publish(std::move(batch), frontier, hash, meta);
  switch (res.outcome) {
    case ReorderRing::Outcome::kDuplicate:
      // A duplicate commit is tolerated, a conflicting one is a fork: two
      // different batches for one slot can not both enter the total order.
      if (res.fingerprint_valid) {
        COP_INVARIANT(res.stored_hash == hash && res.stored_meta == meta,
                      "conflicting commits for seq %llu: the total order "
                      "would fork or leave a hole",
                      static_cast<unsigned long long>(seq));
      }
      break;
    case ReorderRing::Outcome::kDroppedSelf:
      n_reorder_slot_drops_.add();
      break;
    case ReorderRing::Outcome::kEvictedOther:
      n_reorder_slot_drops_.add();
      [[fallthrough]];
    case ReorderRing::Outcome::kStored:
      trace::point(trace::Point::kReorderEnter, self_, pillar, seq, view,
                   /*client=*/0, /*request=*/0);
      m_reorder_depth_.set(static_cast<std::int64_t>(reorder_.size()));
      break;
  }

  // Slice admission watermark: the max seq this pillar has admitted (even
  // when the ring dropped it — a dropped commit still needs re-fetching,
  // which is exactly what the watermark-driven gap poll arranges). Single
  // writer: only the owning pillar's thread stores it.
  PillarLane& lane = lanes_[pillar];
  if (seq > lane.watermark.load(std::memory_order_relaxed))
    lane.watermark.store(seq, std::memory_order_release);

  // Wake handshake (Dekker): the slot publish above and this next_seq
  // load are both seq_cst, as are the stage's next_seq store and slot
  // read — so either we observe the frontier and wake, or the stage's
  // drain observes our publish. Waking only on the frontier edge is what
  // keeps the stage's dequeue cost off the per-commit path.
  if (res.outcome != ReorderRing::Outcome::kDroppedSelf &&
      next_seq_.load(std::memory_order_seq_cst) == seq)
    wake_exec();
  return true;
}

void ExecutionStage::poll_pillar(std::uint32_t pillar, std::uint64_t now_us,
                                 std::vector<PillarCommand>& out) {
  if (pillar >= config_.num_pillars) return;

  // Checkpoint rounds this pillar owns (paper §4.2.2): drained here and
  // fed to the pillar's own handle_command by the caller.
  {
    CkptMailbox& mail = ckpt_mail_[pillar];
    MutexLock lock(mail.mutex);
    for (const CkptSignal& sig : mail.pending)
      out.push_back(StartCheckpoint{sig.seq, sig.digest});
    mail.pending.clear();
  }

  // Slice-local gap tracking: the execution frontier is stalled when it
  // stops moving while some pillar has admitted past it. Each pillar runs
  // its own timer and requests fills for its own slice only.
  PillarLane& lane = lanes_[pillar];
  const protocol::SeqNum frontier = next_seq_.load(std::memory_order_seq_cst);
  if (frontier != lane.last_frontier) {
    lane.last_frontier = frontier;
    lane.stall_since_us = 0;
    return;
  }
  protocol::SeqNum target = 0;
  for (std::uint32_t p = 0; p < config_.num_pillars; ++p)
    target = std::max(target, lanes_[p].watermark.load(
                                  std::memory_order_acquire));
  if (target <= frontier) {
    // Nothing admitted beyond the frontier (== means the frontier itself
    // is published and the stage is about to run it): no gap.
    lane.stall_since_us = 0;
    return;
  }
  if (lane.stall_since_us == 0) {
    lane.stall_since_us = now_us;
    return;
  }
  if (now_us - lane.stall_since_us < config_.gap_timeout_us) return;
  lane.stall_since_us = now_us;
  n_gap_fills_requested_.add();
  out.push_back(FillGap{target, frontier});
}

COP_HOT void ExecutionStage::apply_ready() {
  while (true) {
    const protocol::SeqNum next = next_seq_.load(std::memory_order_relaxed);
    std::optional<CommittedBatch> batch = reorder_.take(next);
    if (!batch) break;
    {
      metrics::ScopedTimer timer(m_execute_us_);
      execute_batch(*batch);
    }
    m_reorder_depth_.set(static_cast<std::int64_t>(reorder_.size()));
    n_last_executed_seq_.set(next);
    maybe_checkpoint(next);
    // seq_cst pairs with the pillars' publish/frontier-check handshake;
    // take() already freed the slot, so a writer that sees this new
    // frontier can immediately reuse it.
    next_seq_.store(next + 1, std::memory_order_seq_cst);
  }
}

COP_HOT void ExecutionStage::execute_batch(const CommittedBatch& batch) {
  m_batches_executed_.add();
  n_batches_executed_.add();
  if (!batch.requests || batch.requests->empty()) {
    n_noops_executed_.add();
    return;
  }
  const auto& requests = *batch.requests;
  for (std::uint32_t i = 0; i < requests.size(); ++i) {
    // The linking event: ties (client, request) to the sequence number the
    // protocol-phase events are stamped with.
    trace::point(trace::Point::kExecute, self_, batch.pillar, batch.seq,
                 batch.view, requests[i].client, requests[i].id);
    execute_request(requests[i], batch, i);
  }
}

bool ExecutionStage::already_executed(ClientState& state,
                                      protocol::RequestId id) const {
  if (state.max_done >= kDedupWindow && id <= state.max_done - kDedupWindow)
    return true;  // far below the window: long done
  return state.done.contains(id);
}

void ExecutionStage::record_executed(ClientState& state,
                                     protocol::RequestId id) {
  state.done.insert(id);
  if (id > state.max_done) state.max_done = id;
  // Prune entries that fell below the dedup window.
  if (state.done.size() > 2 * kDedupWindow) {
    std::erase_if(state.done, [&](protocol::RequestId done_id) {
      return state.max_done >= kDedupWindow &&
             done_id <= state.max_done - kDedupWindow;
    });
  }
}

COP_HOT void ExecutionStage::execute_request(const protocol::Request& request,
                                             const CommittedBatch& batch,
                                             std::uint32_t index) {
  ClientState& state = clients_[request.client];
  if (already_executed(state, request.id)) {
    n_duplicates_suppressed_.add();
    // Retransmission of an executed request: resend the cached reply (the
    // raw ordered result; post_process ran when it was first sent, and a
    // retransmission skips it — null `requests` signals that downstream).
    auto cached = state.replies.find(request.id);
    if (cached == state.replies.end()) return;
    ReplyTask task;
    task.client = request.client;
    task.request = request.id;
    task.view = batch.view;
    task.seq = cached->second.seq;
    task.pillar = static_cast<std::uint32_t>(cached->second.seq %
                                             config_.num_pillars);
    task.result = cached->second.result;  // the cache keeps its entry
    emit_reply(std::move(task));
    return;
  }

  Bytes result = service_.execute(request);
  m_requests_executed_.add();
  record_executed(state, request.id);

  // The cache stores the *raw* ordered result for every request: it is
  // replicated state (part of the checkpoint digest), so it must not
  // depend on this replica's omit role or on post_process decoration.
  if (state.replies.emplace(request.id, CachedReply{batch.seq, result})
          .second) {
    state.reply_order.push_back(request.id);
    if (state.reply_order.size() > kReplyCachePerClient) {
      state.replies.erase(state.reply_order.front());
      state.reply_order.pop_front();
    }
  }

  const bool omit = config_.reply_mode == ReplyMode::kOmitOne &&
                    config_.omitted_replier(request.key()) == self_;
  // The omission is counted before requests_executed's release store, so
  // an observer that sees the request counted also sees the omission.
  if (omit) n_replies_omitted_.add();
  n_requests_executed_.add();
  if (omit) return;

  ReplyTask task;
  task.client = request.client;
  task.request = request.id;
  task.view = batch.view;
  task.pillar = batch.pillar;
  task.seq = batch.seq;
  task.result = std::move(result);
  task.requests = batch.requests;
  task.index = index;
  emit_reply(std::move(task));
}

COP_HOT void ExecutionStage::emit_reply(ReplyTask task) {
  // Counted at emission — offloaded or inline — so exec.replies_sent
  // covers every reply exactly once wherever it is sealed.
  m_replies_sent_.add();
  n_replies_sent_.add();
  // Offloaded post-execution (paper §4.3.2): the originating pillar runs
  // post_process, seals and sends, in parallel with this stage.
  if (reply_fn_ && reply_fn_(task)) {
    n_replies_offloaded_.add();
    return;
  }
  // Inline fallback: single-logic baselines (no ReplyFn installed) and the
  // overload/shutdown path (the pillar's queue is full or closed).
  Bytes result = task.requests
                     ? service_.post_process((*task.requests)[task.index],
                                             std::move(task.result))
                     : std::move(task.result);
  protocol::Message msg = protocol::Reply{
      task.view, task.client, task.request, self_, std::move(result), {}};
  Bytes frame = seal_message(msg, crypto_, protocol::replica_node(self_),
                             {protocol::client_node(task.client)});
  trace::point(trace::Point::kReplyEgress, self_, task.pillar, task.seq,
               task.view, task.client, task.request);
  transport_.send(protocol::client_node(task.client), /*lane=*/0,
                  std::move(frame));
}

void ExecutionStage::maybe_checkpoint(protocol::SeqNum seq) {
  if (seq % config_.protocol.checkpoint_interval != 0) return;
  n_checkpoints_triggered_.add();
  // The agreed checkpoint digest covers the service state *and* the
  // exactly-once client bookkeeping: both are part of what a transferred
  // replica must resume with (see checkpoint_artifact.hpp).
  Bytes client_table = encode_client_table();
  const crypto::Digest service_digest = service_.state_digest();
  const crypto::Digest digest = CheckpointArtifact::checkpoint_digest(
      crypto_, client_table, service_digest);
  if (snapshot_fn_) {
    CheckpointArtifact artifact{std::move(client_table), service_digest,
                                service_.snapshot()};
    snapshot_fn_(seq, digest, artifact.encode());
  }
  // Round-robin checkpoint ownership across pillars (paper §4.2.2): mail
  // the frontier-crossing signal to the owner; its next poll_pillar()
  // turns it into a StartCheckpoint on the owning pillar's own thread.
  const std::uint32_t owner = static_cast<std::uint32_t>(
      (seq / config_.protocol.checkpoint_interval) % config_.num_pillars);
  CkptMailbox& mail = ckpt_mail_[owner];
  MutexLock lock(mail.mutex);
  mail.pending.push_back(CkptSignal{seq, digest});
}

// --------------------------------------------------------------------------
// state transfer: checkpoint install + client-table codec

Bytes ExecutionStage::encode_client_table() const {
  std::vector<protocol::ClientId> ids;
  ids.reserve(clients_.size());
  // COPLINT(allow:det-unordered-iter: only ids are collected and sorted below; the encoding never sees map order)
  for (const auto& [id, state] : clients_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  Bytes out;
  protocol::WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (protocol::ClientId id : ids) {
    const ClientState& state = clients_.at(id);
    w.u32(id);
    w.u64(state.max_done);
    std::vector<protocol::RequestId> done(state.done.begin(),
                                          state.done.end());
    std::sort(done.begin(), done.end());
    w.u32(static_cast<std::uint32_t>(done.size()));
    for (protocol::RequestId rid : done) w.u64(rid);
    // Replies in eviction order so a restored replica evicts identically.
    w.u32(static_cast<std::uint32_t>(state.reply_order.size()));
    for (protocol::RequestId rid : state.reply_order) {
      const CachedReply& cached = state.replies.at(rid);
      w.u64(rid);
      w.u64(cached.seq);
      w.bytes(cached.result);
    }
  }
  return out;
}

bool ExecutionStage::decode_client_table(
    ByteSpan table,
    std::unordered_map<protocol::ClientId, ClientState>& out) const {
  protocol::WireReader r(table);
  std::uint32_t n_clients = r.u32();
  // Each client record occupies >= 20 bytes; bound allocations.
  if (!r.ok() || r.remaining() / 20 < n_clients) return false;
  out.reserve(n_clients);
  for (std::uint32_t i = 0; i < n_clients; ++i) {
    protocol::ClientId id = r.u32();
    ClientState state;
    state.max_done = r.u64();
    std::uint32_t n_done = r.u32();
    if (!r.ok() || r.remaining() / 8 < n_done) return false;
    state.done.reserve(n_done);
    for (std::uint32_t d = 0; d < n_done; ++d) state.done.insert(r.u64());
    std::uint32_t n_replies = r.u32();
    // Each cached reply occupies >= 20 bytes (id + seq + length prefix).
    if (!r.ok() || r.remaining() / 20 < n_replies) return false;
    for (std::uint32_t q = 0; q < n_replies && r.ok(); ++q) {
      protocol::RequestId rid = r.u64();
      CachedReply cached;
      cached.seq = r.u64();
      cached.result = r.bytes();
      if (state.replies.emplace(rid, std::move(cached)).second)
        state.reply_order.push_back(rid);
    }
    if (!r.ok()) return false;
    if (!out.emplace(id, std::move(state)).second) return false;
  }
  return r.at_end();
}

void ExecutionStage::handle_install(InstallState install) {
  const auto reject = [&] {
    n_installs_rejected_.add();
    if (install.done) install.done(false);
  };

  // Checkpoints exist only at interval boundaries; a misaligned install
  // means the transfer path and the protocol disagree about the windows.
  const std::uint64_t interval = config_.protocol.checkpoint_interval;
  COP_INVARIANT(install.seq != 0 && install.seq % interval == 0,
                "state install at seq %llu, not a multiple of the "
                "checkpoint interval %llu",
                static_cast<unsigned long long>(install.seq),
                static_cast<unsigned long long>(interval));
  // Windows never regress: no install may move the frontier below a
  // checkpoint this stage already installed (execution below an installed
  // checkpoint would re-apply history onto newer state).
  COP_INVARIANT(install.seq >= installed_floor_,
                "state install at seq %llu regresses below the installed "
                "checkpoint %llu",
                static_cast<unsigned long long>(install.seq),
                static_cast<unsigned long long>(installed_floor_));
  if (install.seq == 0 || install.seq % interval != 0 ||
      install.seq < installed_floor_)
    return reject();  // a continuing invariant handler lands here

  // Execution already passed this checkpoint (the transfer raced normal
  // progress): nothing to do, and not a failure.
  if (install.seq < next_seq_.load(std::memory_order_relaxed)) {
    if (install.done) install.done(true);
    return;
  }

  auto artifact = CheckpointArtifact::decode(install.artifact);
  if (!artifact) return reject();
  if (artifact->composite_digest(crypto_) != install.digest) return reject();
  // Parse the client table into scratch state before touching anything, so
  // a torn install is impossible; the service restore is atomic itself.
  // COPLINT(allow:det-unordered-member: scratch table mirroring clients_; filled by keyed insert and moved, never iterated)
  std::unordered_map<protocol::ClientId, ClientState> clients;
  if (!decode_client_table(artifact->client_table, clients)) return reject();
  if (!service_.restore(artifact->service_snapshot, artifact->service_digest))
    return reject();

  clients_ = std::move(clients);
  // Ring truncation races pillar writers: advance the frontier *first*
  // (seq_cst), then sweep. A writer that published concurrently and lost
  // the sweep's CAS left a below-frontier occupant, which any later
  // publish to that slot reclaims in place — the ring self-heals.
  next_seq_.store(install.seq + 1, std::memory_order_seq_cst);
  reorder_.discard_upto(install.seq);
  m_reorder_depth_.set(static_cast<std::int64_t>(reorder_.size()));
  installed_floor_ = install.seq;
  n_state_installs_.add();
  n_installed_seq_.set(install.seq);
  // The state now reflects everything through install.seq.
  if (n_last_executed_seq_.get() < install.seq)
    n_last_executed_seq_.set(install.seq);
  if (install.done) install.done(true);
}

}  // namespace copbft::core
