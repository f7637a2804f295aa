// Cluster fixture: four threaded replicas of a chosen architecture, with
// real SHA-256/HMAC cryptography and real clients — the full runtime
// stack — over the in-process transport or over loopback TCP.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/null_service.hpp"
#include "client/client.hpp"
#include "core/cop_replica.hpp"
#include "core/smart_replica.hpp"
#include "core/top_replica.hpp"
#include "transport/inproc.hpp"
#include "transport/tcp.hpp"

namespace copbft::test {

enum class Arch { kCop, kTop, kSmart };

/// kTcp: each replica gets its own loopback TcpTransport (default lane
/// threads) listening on `base_port + r`; the clients share one more as
/// multiplexed endpoints.
enum class Net { kInproc, kTcp };

struct ClusterOptions {
  Arch arch = Arch::kCop;
  std::uint32_t num_pillars = 2;  ///< COP only
  core::ReplicaRuntimeConfig runtime;
  /// Builds the replicated service for one replica.
  std::function<std::unique_ptr<app::Service>(const crypto::CryptoProvider&)>
      make_service;
  Net net = Net::kInproc;
  /// kTcp only; keep it below 32768 (the kernel's ephemeral range) and
  /// clear of every other test's ports.
  std::uint16_t base_port = 0;

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

    std::map<crypto::KeyNodeId, transport::TcpPeer> peers;
    for (protocol::ReplicaId r = 0; r < runtime.protocol.num_replicas; ++r)
      peers[protocol::replica_node(r)] = {
          "127.0.0.1", static_cast<std::uint16_t>(options_.base_port + r)};
    if (tcp()) {
      client_mux_ = std::make_unique<transport::TcpTransport>(
          kClientMuxNode, /*listen_port=*/0, peers);
      if (!client_mux_->start())
        throw std::runtime_error("client transport failed to start");
    }

    for (protocol::ReplicaId r = 0; r < runtime.protocol.num_replicas; ++r) {
      transport::Transport* net = &network_.endpoint(protocol::replica_node(r));
      if (tcp()) {
        sockets_.push_back(std::make_unique<transport::TcpTransport>(
            protocol::replica_node(r), peers[protocol::replica_node(r)].port,
            peers));
        net = sockets_.back().get();
      }
      auto& endpoint = *net;
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
    for (protocol::ReplicaId r = 0; r < replicas_.size(); ++r)
      start_replica(r);
  }

  /// Starts one replica; over TCP its transport starts listening first.
  void start_replica(protocol::ReplicaId r) {
    if (tcp() && !sockets_[r]->start())
      throw std::runtime_error("replica " + std::to_string(r) +
                               " cannot listen on its port");
    replicas_[r]->start();
  }

  /// Stops clients, then replicas, then (over TCP) the transports.
  void stop() {
    for (auto& client : clients_) client->stop();
    for (auto& replica : replicas_) replica->stop();
    shutdown_transports();
  }

  /// Over TCP, shuts every transport down (the clients' too) whether or
  /// not the replicas still run; a no-op in-process.
  void shutdown_transports() {
    if (client_mux_) client_mux_->shutdown();
    for (auto& socket : sockets_) socket->shutdown();
  }

  /// Crash-stops one replica (fault injection). Over TCP its sockets close
  /// too, as a crashed process's would.
  void crash(protocol::ReplicaId r) {
    replicas_[r]->stop();
    if (tcp()) sockets_[r]->shutdown();
  }

  client::Client& add_client(std::uint32_t offset = 0,
                             std::uint32_t window = 16) {
    client::ClientConfig cfg;
    cfg.id = protocol::kClientIdBase + next_client_++ + offset;
    cfg.num_replicas = options_.runtime.protocol.num_replicas;
    cfg.max_faulty = options_.runtime.protocol.max_faulty;
    cfg.num_pillars = options_.runtime.num_pillars;
    cfg.window = window;
    cfg.retransmit_timeout_us = 400'000;
    transport::Transport* endpoint =
        &network_.endpoint(protocol::client_node(cfg.id));
    if (tcp()) {
      client_endpoints_.push_back(
          client_mux_->client_endpoint(protocol::client_node(cfg.id)));
      endpoint = client_endpoints_.back().get();
    }
    clients_.push_back(
        std::make_unique<client::Client>(cfg, *crypto_, *endpoint));
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
  /// Replica r's TCP transport (kTcp only).
  transport::TcpTransport& socket(protocol::ReplicaId r) {
    return *sockets_[r];
  }
  const crypto::CryptoProvider& crypto() const { return *crypto_; }
  const ClusterOptions& options() const { return options_; }

 private:
  /// Node id of the clients' shared TCP transport; never dials as itself.
  static constexpr crypto::KeyNodeId kClientMuxNode = 2'000'000;

  bool tcp() const { return options_.net == Net::kTcp; }

  ClusterOptions options_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  transport::InprocNetwork network_;
  // Declared before the replicas and clients that send through them, so
  // they are destroyed after them.
  std::vector<std::unique_ptr<transport::TcpTransport>> sockets_;
  std::unique_ptr<transport::TcpTransport> client_mux_;
  std::vector<std::shared_ptr<transport::Transport>> client_endpoints_;
  std::vector<std::unique_ptr<core::Replica>> replicas_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::uint32_t next_client_ = 0;
};

// Quorum progress only needs 2f+1 replicas, so the fourth may legally lag
// behind the client's view of completion — especially on one core. Poll
// until every replica satisfies `done` before reading its counters.
template <typename Pred>
bool wait_for_all_replicas(Cluster& cluster, Pred done,
                           std::chrono::seconds budget =
                               std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (true) {
    bool all = true;
    for (protocol::ReplicaId r = 0; r < 4; ++r)
      all = all && done(cluster.replica(r).stats());
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace copbft::test
