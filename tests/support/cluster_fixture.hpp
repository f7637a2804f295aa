// In-process cluster fixture: four threaded replicas of a chosen
// architecture over the in-process transport, with real SHA-256/HMAC
// cryptography and real clients — the full runtime stack.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "app/null_service.hpp"
#include "client/client.hpp"
#include "core/cop_replica.hpp"
#include "core/smart_replica.hpp"
#include "core/top_replica.hpp"
#include "transport/inproc.hpp"

namespace copbft::test {

enum class Arch { kCop, kTop, kSmart };

struct ClusterOptions {
  Arch arch = Arch::kCop;
  std::uint32_t num_pillars = 2;  ///< COP only
  core::ReplicaRuntimeConfig runtime;
  /// Builds the replicated service for one replica.
  std::function<std::unique_ptr<app::Service>(const crypto::CryptoProvider&)>
      make_service;

  ClusterOptions() {
    runtime.protocol.checkpoint_interval = 50;
    runtime.protocol.window = 200;
    runtime.protocol.view_change_timeout_us = 5'000'000;
    runtime.protocol.max_active_proposals = 8;
    make_service = [](const crypto::CryptoProvider&) {
      return std::make_unique<app::NullService>(8);
    };
  }
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options)
      : options_(std::move(options)), crypto_(crypto::make_real_crypto(11)) {
    auto& runtime = options_.runtime;
    switch (options_.arch) {
      case Arch::kCop:
        runtime.num_pillars = options_.num_pillars;
        runtime.protocol.num_pillars = options_.num_pillars;
        break;
      case Arch::kTop:
        runtime.num_pillars = 1;
        runtime.protocol.num_pillars = 1;
        break;
      case Arch::kSmart:
        runtime.num_pillars = 1;
        runtime.protocol.num_pillars = 1;
        runtime.protocol.max_active_proposals = 1;
        break;
    }

    for (protocol::ReplicaId r = 0; r < runtime.protocol.num_replicas; ++r) {
      auto& endpoint = network_.endpoint(protocol::replica_node(r));
      auto service = options_.make_service(*crypto_);
      switch (options_.arch) {
        case Arch::kCop:
          replicas_.push_back(std::make_unique<core::CopReplica>(
              r, runtime, std::move(service), *crypto_, endpoint));
          break;
        case Arch::kTop:
          replicas_.push_back(std::make_unique<core::TopReplica>(
              r, runtime, std::move(service), *crypto_, endpoint));
          break;
        case Arch::kSmart:
          replicas_.push_back(std::make_unique<core::SmartReplica>(
              r, runtime, std::move(service), *crypto_, endpoint));
          break;
      }
    }
  }

  ~Cluster() { stop(); }

  void start() {
    for (auto& replica : replicas_) replica->start();
  }

  void stop() {
    for (auto& client : clients_) client->stop();
    for (auto& replica : replicas_) replica->stop();
  }

  /// Crash-stops one replica (fault injection).
  void crash(protocol::ReplicaId r) { replicas_[r]->stop(); }

  client::Client& add_client(std::uint32_t offset = 0,
                             std::uint32_t window = 16) {
    client::ClientConfig cfg;
    cfg.id = protocol::kClientIdBase + next_client_++ + offset;
    cfg.num_replicas = options_.runtime.protocol.num_replicas;
    cfg.max_faulty = options_.runtime.protocol.max_faulty;
    cfg.num_pillars = options_.runtime.num_pillars;
    cfg.window = window;
    cfg.retransmit_timeout_us = 400'000;
    auto& endpoint = network_.endpoint(protocol::client_node(cfg.id));
    clients_.push_back(
        std::make_unique<client::Client>(cfg, *crypto_, endpoint));
    clients_.back()->start();
    return *clients_.back();
  }

  /// Creates a client whose id maps to the given pillar (id % NP == p).
  client::Client& add_client_on_pillar(std::uint32_t pillar,
                                       std::uint32_t window = 16) {
    std::uint32_t np = options_.runtime.num_pillars;
    while ((protocol::kClientIdBase + next_client_) % np != pillar)
      ++next_client_;
    return add_client(0, window);
  }

  core::Replica& replica(protocol::ReplicaId r) { return *replicas_[r]; }
  transport::InprocNetwork& network() { return network_; }
  const crypto::CryptoProvider& crypto() const { return *crypto_; }
  const ClusterOptions& options() const { return options_; }

 private:
  ClusterOptions options_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  transport::InprocNetwork network_;
  std::vector<std::unique_ptr<core::Replica>> replicas_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::uint32_t next_client_ = 0;
};

}  // namespace copbft::test
