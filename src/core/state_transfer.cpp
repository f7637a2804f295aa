#include "core/state_transfer.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/time.hpp"

namespace copbft::core {
namespace {

std::string st_metric(ReplicaId self, const char* name) {
  return "replica" + std::to_string(self) + ".state_transfer." + name;
}

}  // namespace

StateTransferManager::StateTransferManager(
    ReplicaId self, const ReplicaRuntimeConfig& config,
    const crypto::CryptoProvider& crypto, transport::Transport& transport,
    ExecutionStage& exec, InstalledFn on_installed)
    : self_(self),
      config_(config),
      crypto_(crypto),
      transport_(transport),
      exec_(exec),
      on_installed_(std::move(on_installed)),
      queue_(config.queue_capacity),
      verifier_(crypto, protocol::replica_node(self)),
      m_started_(metrics::MetricsRegistry::global().counter(
          st_metric(self, "transfers_started"))),
      m_completed_(metrics::MetricsRegistry::global().counter(
          st_metric(self, "transfers_completed"))),
      m_served_(metrics::MetricsRegistry::global().counter(
          st_metric(self, "snapshots_served"))),
      m_rejected_(metrics::MetricsRegistry::global().counter(
          st_metric(self, "snapshots_rejected"))) {}

void StateTransferManager::start() {
  thread_ = named_thread("statex", [this] { run(); });
}

void StateTransferManager::stop() {
  queue_.close();
  if (thread_.joinable()) thread_.join();
}

void StateTransferManager::run() {
  const auto poll = std::chrono::microseconds(
      std::max<std::uint64_t>(config_.state_transfer_timeout_us / 4, 1'000));
  while (true) {
    auto event = queue_.pop_for(poll);
    if (!event && queue_.closed()) return;
    if (event) {
      handle(std::move(*event));
      while (auto more = queue_.try_pop()) handle(std::move(*more));
    }
    tick(now_us());
  }
}

void StateTransferManager::handle(Event event) {
  if (auto* frame = std::get_if<transport::ReceivedFrame>(&event)) {
    handle_frame(std::move(*frame));
  } else if (auto* store = std::get_if<StoreCheckpoint>(&event)) {
    // Below the newest stability a checkpoint can never be served.
    if (store->seq >= stable_.seq)
      held_[store->seq] = Held{store->digest, std::move(store->checkpoint)};
  } else if (auto* stable = std::get_if<MarkStable>(&event)) {
    // Stability may arrive before its checkpoint (a hand-off queued behind
    // the peers' votes); the checkpoint is served when it arrives.
    if (stable->seq > stable_.seq) {
      stable_ = std::move(*stable);
      held_.erase(held_.begin(), held_.lower_bound(stable_.seq));
    }
  } else if (auto* ahead = std::get_if<PeerAhead>(&event)) {
    target_hint_ = std::max(target_hint_, ahead->observed);
    if (!catching_up_) begin_transfer(now_us());
  } else {
    finish_install(std::get<InstallDone>(event));
  }
  MutexLock lock(stats_mutex_);
  stats_.held_checkpoints = held_.size();
}

void StateTransferManager::handle_frame(transport::ReceivedFrame frame) {
  auto decoded = protocol::decode_message(frame.bytes);
  if (!decoded) {
    COP_LOG_WARN("replica %u statex: malformed frame from node %u", self_,
                 frame.from);
    return;
  }
  const protocol::MsgType type = protocol::type_of(decoded->msg);
  if (type != protocol::MsgType::kStateRequest &&
      type != protocol::MsgType::kStateReply)
    return;

  protocol::IncomingMessage im;
  im.msg = std::move(decoded->msg);
  im.raw = std::move(frame.bytes);
  im.body_size = decoded->body_size;
  const crypto::KeyNodeId sender = protocol::sender_node(im.msg);
  if (sender == protocol::replica_node(self_) ||
      protocol::is_client_node(sender) ||
      sender >= config_.protocol.num_replicas)
    return;
  if (!verifier_.verify(im, sender)) return;

  if (auto* request = std::get_if<protocol::StateRequest>(&im.msg)) {
    handle_request(*request);
  } else {
    handle_reply(std::move(std::get<protocol::StateReply>(im.msg)));
  }
}

void StateTransferManager::handle_request(
    const protocol::StateRequest& request) {
  // Serve the newest stable checkpoint if it is useful to the requester (at
  // or above its execution frontier; anything older would install as a
  // no-op and leave it stranded) and this replica holds a checkpoint that
  // matches the agreed digest. Otherwise stay silent: the requester's
  // timeout re-asks once the next checkpoint stabilizes.
  const auto it = held_.find(stable_.seq);
  if (stable_.seq < request.min_seq || it == held_.end() ||
      it->second.digest != stable_.digest)
    return;
  // Encoded here, per request: only a laggard's request pays for the bytes.
  const Bytes artifact = it->second.checkpoint.encode();
  const std::size_t chunk_bytes =
      std::max<std::size_t>(config_.state_chunk_bytes, 1);
  const std::uint32_t chunk_count = static_cast<std::uint32_t>(
      std::max<std::size_t>((artifact.size() + chunk_bytes - 1) / chunk_bytes,
                            1));
  const crypto::KeyNodeId to = protocol::replica_node(request.replica);
  for (std::uint32_t c = 0; c < chunk_count; ++c) {
    const std::size_t begin = c * chunk_bytes;
    const std::size_t end = std::min(artifact.size(), begin + chunk_bytes);
    protocol::StateReply reply;
    reply.seq = stable_.seq;
    reply.digest = stable_.digest;
    reply.certificate = stable_.voters;
    reply.chunk = c;
    reply.chunk_count = chunk_count;
    reply.data.assign(artifact.begin() + static_cast<std::ptrdiff_t>(begin),
                      artifact.begin() + static_cast<std::ptrdiff_t>(end));
    reply.replica = self_;
    protocol::Message msg = std::move(reply);
    Bytes frame =
        seal_message(msg, crypto_, protocol::replica_node(self_), {to});
    transport_.send(to, lane(), std::move(frame));
  }
  m_served_.add();
  MutexLock lock(stats_mutex_);
  ++stats_.snapshots_served;
}

void StateTransferManager::handle_reply(protocol::StateReply reply) {
  if (!catching_up_) return;
  if (reply.seq < min_seq_) return;
  if (reply.chunk_count == 0 || reply.chunk >= reply.chunk_count) return;
  // Sanity on the claimed certificate: stability takes 2f+1 matching
  // votes. This is a claim, not proof — the real check is f+1 independent
  // peers attesting the same (seq, digest) below.
  if (reply.certificate.size() < config_.protocol.quorum()) return;
  // Checkpoints only exist at interval boundaries.
  if (reply.seq % config_.protocol.checkpoint_interval != 0) return;

  auto [it, inserted] = incoming_.try_emplace(reply.replica);
  Incoming& in = it->second;
  if (!inserted) {
    if (in.seq == reply.seq) {
      // Same transfer: digest/chunk_count must not waver (equivocation).
      if (in.digest != reply.digest || in.chunk_count != reply.chunk_count)
        return;
    } else if (reply.seq > in.seq) {
      in = Incoming{};  // the peer moved to a newer checkpoint; restart
    } else {
      return;  // stale chunk of an abandoned transfer
    }
  }
  if (in.chunk_count == 0) {
    in.seq = reply.seq;
    in.digest = reply.digest;
    in.voters = std::move(reply.certificate);
    in.chunk_count = reply.chunk_count;
  }
  in.chunks.try_emplace(reply.chunk, std::move(reply.data));
  try_install();
}

void StateTransferManager::begin_transfer(std::uint64_t now) {
  catching_up_ = true;
  incoming_.clear();
  m_started_.add();
  {
    MutexLock lock(stats_mutex_);
    ++stats_.transfers_started;
  }
  send_request(now);
}

void StateTransferManager::send_request(std::uint64_t now) {
  min_seq_ = exec_.next_seq();
  deadline_us_ = now + config_.state_transfer_timeout_us;
  // Assemblies below the (possibly advanced) frontier are useless now.
  std::erase_if(incoming_, [&](const auto& e) { return e.second.seq != 0 &&
                                                       e.second.seq < min_seq_; });
  protocol::Message msg = protocol::StateRequest{min_seq_, self_, {}};
  const auto recipients =
      other_replicas(config_.protocol.num_replicas, self_);
  Bytes frame =
      seal_message(msg, crypto_, protocol::replica_node(self_), recipients);
  for (crypto::KeyNodeId to : recipients) transport_.send(to, lane(), frame);
}

void StateTransferManager::try_install() {
  if (install_pending_ || !catching_up_) return;
  // A candidate must be fully reassembled, not yet rejected, and its
  // (seq, digest) attested by f+1 distinct peers — at least one of them
  // correct, which is what replaces transferable certificate proof under
  // MAC authenticators.
  const Incoming* best = nullptr;
  protocol::ReplicaId best_peer = 0;
  for (const auto& [peer, in] : incoming_) {
    if (in.chunk_count == 0 || !in.complete() || in.tried) continue;
    std::uint32_t attested = 0;
    for (const auto& [other_peer, other] : incoming_)
      if (other.seq == in.seq && other.digest == in.digest) ++attested;
    if (attested < config_.protocol.weak_quorum()) continue;
    if (!best || in.seq > best->seq) {
      best = &in;
      best_peer = peer;
    }
  }
  if (!best) return;

  Bytes artifact;
  for (const auto& [chunk, data] : best->chunks) append(artifact, data);
  install_pending_ = true;
  const protocol::ReplicaId peer = best_peer;
  const protocol::SeqNum seq = best->seq;
  const crypto::Digest digest = best->digest;
  exec_.submit_install(InstallState{
      seq, digest, std::move(artifact), [this, peer, seq, digest](bool ok) {
        // Runs on the execution-stage thread; bounce back into our queue.
        queue_.push(Event{InstallDone{peer, seq, digest, ok}});
      }});
}

void StateTransferManager::finish_install(const InstallDone& done) {
  install_pending_ = false;
  if (!done.ok) {
    // Hash mismatch or malformed artifact: the peer served a bad snapshot
    // (Byzantine or stale). Never retry it for this transfer; try the
    // next attested candidate.
    m_rejected_.add();
    {
      MutexLock lock(stats_mutex_);
      ++stats_.snapshots_rejected;
    }
    auto it = incoming_.find(done.peer);
    if (it != incoming_.end() && it->second.seq == done.seq)
      it->second.tried = true;
    try_install();
    return;
  }
  catching_up_ = false;
  incoming_.clear();
  m_completed_.add();
  {
    MutexLock lock(stats_mutex_);
    ++stats_.transfers_completed;
    stats_.installed_seq = done.seq;
  }
  COP_LOG_INFO("replica %u: installed state-transfer checkpoint at seq %llu",
               self_, static_cast<unsigned long long>(done.seq));
  if (on_installed_)
    on_installed_(done.seq, done.digest, std::max(target_hint_, done.seq));
}

void StateTransferManager::tick(std::uint64_t now) {
  if (!catching_up_ || install_pending_) return;
  if (now < deadline_us_) return;
  {
    MutexLock lock(stats_mutex_);
    ++stats_.requests_retried;
  }
  send_request(now);
}

}  // namespace copbft::core
