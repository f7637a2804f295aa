#include "core/outbound_sink.hpp"

namespace copbft::core {

AuthPoolOutbound::AuthPoolOutbound(ReplicaId self, std::uint32_t num_replicas,
                                   const crypto::CryptoProvider& crypto,
                                   transport::Transport& transport,
                                   std::uint32_t threads,
                                   std::size_t queue_capacity)
    : sealer_(self, num_replicas, crypto, transport), queue_(queue_capacity) {
  threads_.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i)
    threads_.emplace_back(
        named_thread("auth-" + std::to_string(i), [this] { worker(); }));
}

void AuthPoolOutbound::broadcast(std::vector<protocol::Message>&& msgs,
                                 transport::LaneId lane) {
  queue_.push(Work{std::move(msgs), lane, 0});
}

void AuthPoolOutbound::send_to(ReplicaId to, protocol::Message msg,
                               transport::LaneId lane) {
  queue_.push(Work{std::move(msg), lane, to});
}

void AuthPoolOutbound::worker() {
  while (auto work = queue_.pop()) {
    if (auto* msgs = std::get_if<std::vector<protocol::Message>>(&work->msgs))
      sealer_.broadcast(std::move(*msgs), work->lane);
    else
      sealer_.send_to(work->to,
                      std::move(std::get<protocol::Message>(work->msgs)),
                      work->lane);
  }
}

void AuthPoolOutbound::stop() {
  queue_.close();
  threads_.clear();  // jthreads join
}

}  // namespace copbft::core
