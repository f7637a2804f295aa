#include "core/top_replica.hpp"

#include "common/logging.hpp"

namespace copbft::core {

TopReplica::TopReplica(ReplicaId self, ReplicaRuntimeConfig config,
                       std::unique_ptr<app::Service> service,
                       const crypto::CryptoProvider& crypto,
                       transport::Transport& transport)
    : self_(self),
      config_(std::move(config)),
      service_(std::move(service)),
      ingress_verifier_(crypto, protocol::replica_node(self)),
      outbound_(self, config_.protocol.num_replicas, crypto, transport,
                kAuthThreads, config_.queue_capacity),
      exec_(self, config_, *service_, crypto, transport) {
  if (config_.num_pillars != 1)
    throw std::invalid_argument("TOP replica has exactly one logic thread");
  if (config_.protocol.num_pillars != config_.num_pillars)
    throw std::invalid_argument(
        "TOP replica needs num_pillars == protocol.num_pillars");

  logic_ = std::make_shared<Pillar>(self_, 0, config_, crypto, exec_,
                                    outbound_, service_.get(),
                                    Pillar::StableFn{});
  exec_.set_command_fn([this](std::uint32_t, PillarCommand command) {
    logic_->post_command(std::move(command));
  });
  ingress_ = std::make_shared<transport::Inbox>(config_.queue_capacity);
  transport.register_sink(0, ingress_);
}

void TopReplica::run_ingress() {
  while (auto frame = ingress_->queue().pop()) {
    if (protocol::is_vote_bundle(frame->bytes)) {
      auto votes = protocol::parse_vote_bundle(
          std::move(frame->bytes), self_, config_.protocol.num_replicas);
      if (!votes) {
        COP_LOG_WARN("replica %u ingress: malformed bundle from node %u",
                     self_, frame->from);
        continue;
      }
      // The logic thread checks the bundle's authenticator when it first
      // needs one of its votes.
      for (protocol::IncomingMessage& im : *votes)
        logic_->post(PillarEvent{PreparedInput{std::move(im)}});
      continue;
    }
    auto decoded = protocol::decode_message(frame->bytes);
    if (!decoded) {
      COP_LOG_WARN("replica %u ingress: malformed frame from node %u",
                   self_, frame->from);
      continue;
    }
    protocol::IncomingMessage im;
    im.body_size = decoded->body_size;
    if (auto* req = std::get_if<protocol::Request>(&decoded->msg)) {
      // Client management: authenticate requests here, in the pipeline
      // stage, so the logic thread only sees valid ones.
      if (!ingress_verifier_.verify_request(*req)) continue;
      im.pre_verified = true;
      im.msg = std::move(decoded->msg);
    } else {
      im.msg = std::move(decoded->msg);
      im.raw = std::move(frame->bytes);
    }
    logic_->post(PillarEvent{PreparedInput{std::move(im)}});
  }
}

void TopReplica::start() {
  exec_.start();
  logic_->start();
  ingress_thread_ = named_thread("ingress", [this] { run_ingress(); });
}

void TopReplica::stop() {
  if (stopped_) return;
  stopped_ = true;
  ingress_->close();
  if (ingress_thread_.joinable()) ingress_thread_.join();
  logic_->stop();
  outbound_.stop();
  exec_.stop();
}

ReplicaStats TopReplica::stats() const {
  ReplicaStats out;
  out.exec = exec_.stats();
  out.core += logic_->core_stats();
  return out;
}

}  // namespace copbft::core
