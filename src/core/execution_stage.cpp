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

std::string exec_metric(ReplicaId self, const char* name) {
  return "replica" + std::to_string(self) + ".exec." + name;
}

/// Live sequence numbers span at most [frontier, stable + window]; the
/// frontier can itself trail stability, so 2x window plus slack covers
/// every commit worth buffering. Clamped so a pathological window cannot
/// exhaust memory.
protocol::SeqNum reorder_span(std::uint64_t window) {
  const std::uint64_t want = 2 * window + 2;
  protocol::SeqNum n = 64;
  while (n < want && n < (protocol::SeqNum{1} << 20)) n <<= 1;
  return n;
}

/// Two commits for one sequence number must carry the same batch: the
/// same no-op flag and the same request keys, in order.
bool same_batch(const CommittedBatch& a, const CommittedBatch& b) {
  const bool a_noop = !a.requests || a.requests->empty();
  const bool b_noop = !b.requests || b.requests->empty();
  if (a_noop || b_noop) return a_noop == b_noop;
  return std::equal(a.requests->begin(), a.requests->end(),
                    b.requests->begin(), b.requests->end(),
                    [](const protocol::Request& x, const protocol::Request& y) {
                      return x.key() == y.key();
                    });
}

}  // namespace

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
      span_(reorder_span(config.protocol.window)),
      inbox_(config.queue_capacity),
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
          exec_metric(self, "execute_us"))),
      m_reorder_wait_us_(metrics::MetricsRegistry::global().histogram(
          exec_metric(self, "reorder_wait_us"))) {
  inbox_.instrument(
      metrics::MetricsRegistry::global().gauge(exec_metric(self, "queue_depth")),
      metrics::MetricsRegistry::global().counter(
          exec_metric(self, "queue_blocked_pushes")));
}

void ExecutionStage::start() {
  thread_ = named_thread("exec", [this] { run(); });
}

void ExecutionStage::stop() {
  inbox_.close();
  if (thread_.joinable()) thread_.join();
}

bool ExecutionStage::admit(CommittedBatch batch) {
  return inbox_.push(Input{std::move(batch)});
}

bool ExecutionStage::submit_install(InstallState install) {
  return inbox_.push(Input{std::move(install)});
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
  out.duplicates_unanswered = n_duplicates_unanswered_.get();
  out.replies_sent = n_replies_sent_.get();
  out.replies_unsent = n_replies_unsent_.get();
  out.replies_omitted = n_replies_omitted_.get();
  out.checkpoints_triggered = n_checkpoints_triggered_.get();
  out.gap_fills_requested = n_gap_fills_requested_.get();
  out.reorder_slot_drops = n_reorder_slot_drops_.get();
  out.state_installs = n_state_installs_.get();
  out.installs_rejected = n_installs_rejected_.get();
  out.installed_seq = n_installed_seq_.get();
  return out;
}

void ExecutionStage::run() {
  // The timed wait bounds how late a gap stall is noticed when no input
  // arrives.
  const auto poll = std::chrono::microseconds(
      std::max<std::uint64_t>(config_.gap_timeout_us / 2, 500));
  const auto handle = [this](Input input) {
    if (auto* batch = std::get_if<CommittedBatch>(&input)) {
      buffer(std::move(*batch));
    } else {
      handle_install(std::move(std::get<InstallState>(input)));
    }
  };
  while (true) {
    auto input = inbox_.pop_for(poll);
    if (!input && inbox_.closed()) return;
    if (input) {
      handle(std::move(*input));
      while (auto more = inbox_.try_pop()) handle(std::move(*more));
    }
    apply_ready();
    check_gap(now_us());
  }
}

COP_HOT void ExecutionStage::buffer(CommittedBatch batch) {
  const std::uint32_t np = config_.num_pillars;
  COP_INVARIANT(batch.seq != 0,
                "sequence number 0 is genesis and must never commit "
                "(pillar %u)",
                batch.pillar);
  // Paper §4.2.1: pillar p owns exactly the numbers c(p,i) = p + i*NP.
  COP_INVARIANT(batch.pillar < np && batch.seq % np == batch.pillar,
                "seq %llu delivered by pillar %u breaks the c(p,i)=p+i*NP "
                "partition (NP=%u)",
                static_cast<unsigned long long>(batch.seq), batch.pillar, np);

  const protocol::SeqNum frontier = next_seq_.load(std::memory_order_relaxed);
  if (batch.seq < frontier) return;  // stale redelivery

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
  // A dropped commit still counts as admitted: the gap check must see the
  // stall it leaves, which is what sends a lagging replica to state
  // transfer.
  highest_admitted_ = std::max(highest_admitted_, seq);
  m_drift_.set(static_cast<std::int64_t>(seq - batch.stable_basis));
  if (seq >= frontier + span_) {
    n_reorder_slot_drops_.add();
    return;
  }

  const auto slot = reorder_.lower_bound(seq);
  if (slot != reorder_.end() && slot->first == seq) {
    // A duplicate commit is tolerated, a conflicting one is a fork: two
    // different batches for one slot can not both enter the total order.
    COP_INVARIANT(same_batch(slot->second.batch, batch),
                  "conflicting commits for seq %llu: the total order "
                  "would fork or leave a hole",
                  static_cast<unsigned long long>(seq));
    return;
  }
  trace::point(trace::Point::kReorderEnter, self_, batch.pillar, seq,
               batch.view, /*client=*/0, /*request=*/0);
  reorder_.emplace_hint(slot, seq, Buffered{std::move(batch), now_us()});
  m_reorder_depth_.set(static_cast<std::int64_t>(reorder_.size()));
}

void ExecutionStage::check_gap(std::uint64_t now) {
  const protocol::SeqNum frontier = next_seq_.load(std::memory_order_relaxed);
  if (highest_admitted_ <= frontier) {
    // Nothing admitted beyond the frontier: no gap.
    stall_since_us_ = 0;
    return;
  }
  if (stall_since_us_ == 0 || frontier != stall_frontier_) {
    stall_frontier_ = frontier;
    stall_since_us_ = now;
    return;
  }
  if (now - stall_since_us_ < config_.gap_timeout_us) return;
  stall_since_us_ = now;
  // Paper §4.2.1: every pillar fills its own slice up to the highest
  // admitted seq with pending requests or no-ops.
  for (std::uint32_t p = 0; p < config_.num_pillars; ++p)
    post_command(p, FillGap{highest_admitted_, frontier});
  n_gap_fills_requested_.add(config_.num_pillars);
}

void ExecutionStage::post_command(std::uint32_t pillar,
                                  PillarCommand command) {
  if (command_fn_) command_fn_(pillar, std::move(command));
}

COP_HOT void ExecutionStage::apply_ready() {
  while (!reorder_.empty()) {
    const auto ready = reorder_.begin();
    const protocol::SeqNum next = next_seq_.load(std::memory_order_relaxed);
    if (ready->first != next) break;
    m_reorder_wait_us_.record(now_us() - ready->second.since_us);
    {
      metrics::ScopedTimer timer(m_execute_us_);
      execute_batch(ready->second.batch);
    }
    reorder_.erase(ready);
    m_reorder_depth_.set(static_cast<std::int64_t>(reorder_.size()));
    n_last_executed_seq_.set(next);
    maybe_checkpoint(next);
    next_seq_.store(next + 1, std::memory_order_release);
  }
}

COP_HOT void ExecutionStage::execute_batch(const CommittedBatch& batch) {
  m_batches_executed_.add();
  n_batches_executed_.add();
  if (!batch.requests || batch.requests->empty()) {
    n_noops_executed_.add();
    return;
  }
  for (const protocol::Request& request : *batch.requests) {
    // The linking event: ties (client, request) to the sequence number the
    // protocol-phase events are stamped with.
    trace::point(trace::Point::kExecute, self_, batch.pillar, batch.seq,
                 batch.view, request.client, request.id);
    execute_request(request, batch);
  }
}

bool ExecutionStage::already_executed(ClientState& state,
                                      protocol::RequestId id) const {
  if (state.max_done >= kDedupWindow && id <= state.max_done - kDedupWindow)
    return true;  // far below the window: long done
  return std::binary_search(state.done.begin(), state.done.end(), id);
}

void ExecutionStage::record_executed(ClientState& state,
                                     protocol::RequestId id) {
  const auto at = std::lower_bound(state.done.begin(), state.done.end(), id);
  if (at == state.done.end() || *at != id) state.done.insert(at, id);
  if (id > state.max_done) state.max_done = id;
  // Prune entries that fell below the dedup window.
  if (state.done.size() > 2 * kDedupWindow && state.max_done >= kDedupWindow)
    state.done.erase(state.done.begin(),
                     std::upper_bound(state.done.begin(), state.done.end(),
                                      state.max_done - kDedupWindow));
}

COP_HOT void ExecutionStage::execute_request(const protocol::Request& request,
                                             const CommittedBatch& batch) {
  ClientState& state = clients_[request.client];
  if (already_executed(state, request.id)) {
    n_duplicates_suppressed_.add();
    // Retransmission of an executed request: resend the cached reply, the
    // raw ordered result (post_process ran when it was first sent), stamped
    // with the instance it originally executed in.
    auto cached = state.replies.find(request.id);
    if (cached == state.replies.end()) {
      n_duplicates_unanswered_.add();
      return;
    }
    const protocol::SeqNum seq = cached->second.seq;
    send_reply(request.client, request.id, batch.view,
               static_cast<std::uint32_t>(seq % config_.num_pillars), seq,
               cached->second.result);  // the cache keeps its entry
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

  send_reply(request.client, request.id, batch.view, batch.pillar, batch.seq,
             service_.post_process(request, std::move(result)));
}

COP_HOT void ExecutionStage::send_reply(protocol::ClientId client,
                                        protocol::RequestId request,
                                        protocol::ViewId view,
                                        std::uint32_t pillar,
                                        protocol::SeqNum seq, Bytes result) {
  m_replies_sent_.add();
  n_replies_sent_.add();
  protocol::Message msg =
      protocol::Reply{view, client, request, self_, std::move(result), {}};
  Bytes frame = seal_message(msg, crypto_, protocol::replica_node(self_),
                             {protocol::client_node(client)});
  trace::point(trace::Point::kReplyEgress, self_, pillar, seq, view, client,
               request);
  if (!transport_.send(protocol::client_node(client), /*lane=*/0,
                       std::move(frame)))
    n_replies_unsent_.add();
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
  if (snapshot_fn_)
    snapshot_fn_(seq, digest,
                 CheckpointHandOff{std::move(client_table), service_digest,
                                   service_.version()});
  // Round-robin checkpoint ownership across pillars (paper §4.2.2).
  const std::uint32_t owner = static_cast<std::uint32_t>(
      (seq / config_.protocol.checkpoint_interval) % config_.num_pillars);
  post_command(owner, StartCheckpoint{seq, digest});
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
    w.u32(static_cast<std::uint32_t>(state.done.size()));
    for (protocol::RequestId rid : state.done) w.u64(rid);
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
    for (std::uint32_t d = 0; d < n_done; ++d) state.done.push_back(r.u64());
    std::sort(state.done.begin(), state.done.end());
    state.done.erase(std::unique(state.done.begin(), state.done.end()),
                     state.done.end());
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
  // Buffered commits the checkpoint covers are dropped unexecuted; later
  // redeliveries of them are stale.
  reorder_.erase(reorder_.begin(), reorder_.upper_bound(install.seq));
  next_seq_.store(install.seq + 1, std::memory_order_release);
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
