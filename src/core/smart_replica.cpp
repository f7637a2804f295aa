#include "core/smart_replica.hpp"

#include "common/logging.hpp"

namespace copbft::core {

SmartReplica::SmartReplica(ReplicaId self, ReplicaRuntimeConfig config,
                           std::unique_ptr<app::Service> service,
                           const crypto::CryptoProvider& crypto,
                           transport::Transport& transport)
    : self_(self),
      config_(std::move(config)),
      service_(std::move(service)),
      // The pool checks every bundle, eagerly; it counts those checks
      // where COP and TOP count theirs, on the logic pillar.
      pool_verifier_(crypto, protocol::replica_node(self),
                     &pillar_counter(self, 0, "bundles_checked")),
      auth_pool_(self, config_.protocol.num_replicas, crypto, transport,
                 kAuthThreads, config_.queue_capacity),
      exec_(self, config_, *service_, crypto, transport) {
  if (config_.num_pillars != 1)
    throw std::invalid_argument("SMaRt replica has exactly one logic thread");
  if (config_.protocol.num_pillars != config_.num_pillars)
    throw std::invalid_argument(
        "SMaRt replica needs num_pillars == protocol.num_pillars");
  if (config_.protocol.max_active_proposals != 1)
    throw std::invalid_argument(
        "SMaRt baseline requires max_active_proposals = 1");

  logic_ = std::make_shared<Pillar>(self_, 0, config_, crypto, exec_,
                                    auth_pool_, service_.get(),
                                    Pillar::StableFn{});
  exec_.set_command_fn([this](std::uint32_t, PillarCommand command) {
    logic_->post_command(std::move(command));
  });
  verify_inbox_ = std::make_shared<transport::Inbox>(config_.queue_capacity);
  transport.register_sink(0, verify_inbox_);
}

void SmartReplica::run_verifier() {
  while (auto frame = verify_inbox_->queue().pop()) {
    if (protocol::is_vote_bundle(frame->bytes)) {
      auto votes = protocol::parse_vote_bundle(
          std::move(frame->bytes), self_, config_.protocol.num_replicas);
      if (!votes) continue;
      // Out-of-order verification: one check covers every vote.
      pool_verifications_.fetch_add(1, std::memory_order_relaxed);
      if (!pool_verifier_.check_bundle(*votes->front().bundle)) continue;
      for (protocol::IncomingMessage& im : *votes) {
        im.pre_verified = true;
        logic_->post(PillarEvent{PreparedInput{std::move(im)}});
      }
      continue;
    }
    auto decoded = protocol::decode_message(frame->bytes);
    if (!decoded) continue;

    protocol::IncomingMessage im;
    im.msg = std::move(decoded->msg);
    im.raw = std::move(frame->bytes);
    im.body_size = decoded->body_size;

    // Out-of-order verification: authenticate everything now, whether the
    // protocol will need it or not (paper §3.2).
    bool ok;
    pool_verifications_.fetch_add(1, std::memory_order_relaxed);
    if (auto* req = std::get_if<protocol::Request>(&im.msg)) {
      ok = pool_verifier_.verify_request(*req);
    } else {
      crypto::KeyNodeId sender = protocol::sender_node(im.msg);
      if (sender == protocol::kUnknownNode) {
        const auto& pp = std::get<protocol::PrePrepare>(im.msg);
        sender = protocol::replica_node(
            config_.protocol.leader_for(pp.view, pp.seq));
      }
      ok = pool_verifier_.verify(im, sender);
      if (ok) {
        if (const auto* pp = std::get_if<protocol::PrePrepare>(&im.msg)) {
          for (const protocol::Request& req : pp->requests) {
            pool_verifications_.fetch_add(1, std::memory_order_relaxed);
            if (!(ok = pool_verifier_.verify_request(req))) break;
          }
        }
      }
    }
    if (!ok) continue;
    im.pre_verified = true;
    logic_->post(PillarEvent{PreparedInput{std::move(im)}});
  }
}

void SmartReplica::start() {
  exec_.start();
  logic_->start();
  for (std::uint32_t i = 0; i < kAuthThreads; ++i)
    verifiers_.push_back(named_thread("verify-" + std::to_string(i),
                                      [this] { run_verifier(); }));
}

void SmartReplica::stop() {
  if (stopped_) return;
  stopped_ = true;
  verify_inbox_->close();
  verifiers_.clear();  // join
  logic_->stop();
  auth_pool_.stop();
  exec_.stop();
}

ReplicaStats SmartReplica::stats() const {
  ReplicaStats out;
  out.exec = exec_.stats();
  out.core += logic_->core_stats();
  return out;
}

}  // namespace copbft::core
