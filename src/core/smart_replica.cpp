#include "core/smart_replica.hpp"

#include "common/logging.hpp"

namespace copbft::core {

SmartReplica::SmartReplica(ReplicaId self, ReplicaRuntimeConfig config,
                           std::unique_ptr<app::Service> service,
                           const crypto::CryptoProvider& crypto,
                           transport::Transport& transport,
                           std::uint32_t lanes)
    : self_(self),
      config_(std::move(config)),
      lanes_(lanes),
      service_(std::move(service)),
      pool_verifier_(crypto, protocol::replica_node(self)),
      auth_pool_(self, config_.protocol.num_replicas, crypto, transport,
                 config_.auth_threads, config_.queue_capacity),
      outbound_(auth_pool_, lanes),
      exec_(self, config_, *service_, crypto, transport) {
  if (config_.num_pillars != 1)
    throw std::invalid_argument("SMaRt replica has exactly one logic thread");
  if (config_.protocol.max_active_proposals != 1)
    throw std::invalid_argument(
        "SMaRt baseline requires max_active_proposals = 1");

  logic_ = std::make_shared<Pillar>(self_, 0, config_, crypto, exec_,
                                    outbound_, service_.get(),
                                    Pillar::StableFn{});
  verify_pool_ = std::make_shared<VerifyPool>(*this, config_.auth_threads,
                                              config_.queue_capacity);
  for (std::uint32_t lane = 0; lane < lanes_; ++lane)
    transport.register_sink(lane, verify_pool_);
}

void SmartReplica::VerifyPool::start() {
  threads_.reserve(threads_count_);
  for (std::uint32_t i = 0; i < threads_count_; ++i)
    threads_.emplace_back(
        named_thread("verify-" + std::to_string(i), [this] { run(); }));
}

void SmartReplica::VerifyPool::stop() {
  queue_.close();
  threads_.clear();  // join
}

void SmartReplica::VerifyPool::run() {
  while (auto frame = queue_.pop()) {
    auto decoded = protocol::decode_message(frame->bytes);
    if (!decoded) continue;

    protocol::IncomingMessage im;
    im.msg = std::move(decoded->msg);
    im.raw = std::move(frame->bytes);
    im.body_size = decoded->body_size;

    // Out-of-order verification: authenticate everything now, whether the
    // protocol will need it or not (paper §3.2).
    bool ok;
    owner_.pool_verifications_.fetch_add(1, std::memory_order_relaxed);
    if (auto* req = std::get_if<protocol::Request>(&im.msg)) {
      ok = owner_.pool_verifier_.verify_request(*req);
    } else {
      crypto::KeyNodeId sender = protocol::sender_node(im.msg);
      if (sender == protocol::kUnknownNode) {
        const auto& pp = std::get<protocol::PrePrepare>(im.msg);
        sender = protocol::replica_node(
            owner_.config_.protocol.leader_for(pp.view, pp.seq));
      }
      ok = owner_.pool_verifier_.verify(im, sender);
      if (ok) {
        if (const auto* pp = std::get_if<protocol::PrePrepare>(&im.msg)) {
          for (const protocol::Request& req : pp->requests) {
            owner_.pool_verifications_.fetch_add(1,
                                                 std::memory_order_relaxed);
            if (!(ok = owner_.pool_verifier_.verify_request(req))) break;
          }
        }
      }
    }
    if (!ok) continue;
    im.pre_verified = true;
    owner_.logic_->post(PillarEvent{PreparedInput{std::move(im)}});
  }
}

void SmartReplica::start() {
  exec_.start();
  logic_->start();
  verify_pool_->start();
}

void SmartReplica::stop() {
  if (stopped_) return;
  stopped_ = true;
  verify_pool_->stop();
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
