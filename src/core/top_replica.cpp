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
                config_.auth_threads, config_.queue_capacity),
      exec_(self, config_, *service_, crypto, transport) {
  if (config_.num_pillars != 1)
    throw std::invalid_argument("TOP replica has exactly one logic thread");

  logic_ = std::make_shared<Pillar>(self_, 0, config_, crypto, exec_,
                                    outbound_, service_.get(),
                                    Pillar::StableFn{});
  ingress_ = std::make_shared<IngressStage>(*this, config_.queue_capacity);
  transport.register_sink(0, ingress_);
}

void TopReplica::IngressStage::start() {
  thread_ = named_thread("ingress", [this] { run(); });
}

void TopReplica::IngressStage::stop() {
  queue_.close();
  if (thread_.joinable()) thread_.join();
}

void TopReplica::IngressStage::run() {
  while (auto frame = queue_.pop()) {
    auto decoded = protocol::decode_message(frame->bytes);
    if (!decoded) {
      COP_LOG_WARN("replica %u ingress: malformed frame from node %u",
                   owner_.self_, frame->from);
      continue;
    }
    protocol::IncomingMessage im;
    im.body_size = decoded->body_size;
    if (auto* req = std::get_if<protocol::Request>(&decoded->msg)) {
      // Client management: authenticate requests here, in the pipeline
      // stage, so the logic thread only sees valid ones.
      if (!owner_.ingress_verifier_.verify_request(*req)) continue;
      im.pre_verified = true;
      im.msg = std::move(decoded->msg);
    } else {
      im.msg = std::move(decoded->msg);
      im.raw = std::move(frame->bytes);
    }
    owner_.logic_->post(PillarEvent{PreparedInput{std::move(im)}});
  }
}

void TopReplica::start() {
  exec_.start();
  logic_->start();
  ingress_->start();
}

void TopReplica::stop() {
  if (stopped_) return;
  stopped_ = true;
  ingress_->stop();
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
