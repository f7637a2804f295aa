// TCP transport example: the same four-replica COP cluster, but every
// node talks over real TCP sockets on localhost — each pillar lane gets
// its own connection per peer pair and direction (paper §4.2.3).
//
// In a deployment each replica would run in its own process/machine; here
// they share one process for a self-contained demo, but all frames really
// cross the loopback TCP stack.
#include <cstdio>

#include "app/null_service.hpp"
#include "client/client.hpp"
#include "core/cop_replica.hpp"
#include "transport/tcp.hpp"

using namespace copbft;

int main() {
  auto crypto = crypto::make_real_crypto(5);

  // Below 32768, outside the kernel's default ephemeral port range.
  constexpr std::uint16_t kBasePort = 22500;
  constexpr std::uint32_t kPillars = 2;
  const protocol::ClientId kClient = protocol::kClientIdBase;

  // Address book: only the replicas listen. The client dials them and its
  // replies ride back over those same connections (event-loop ingress) —
  // no client listen port, no dial-back.
  std::map<crypto::KeyNodeId, transport::TcpPeer> peers;
  for (protocol::ReplicaId r = 0; r < 4; ++r)
    peers[protocol::replica_node(r)] = {"127.0.0.1",
                                        static_cast<std::uint16_t>(kBasePort + r)};

  std::vector<std::unique_ptr<transport::TcpTransport>> transports;
  for (protocol::ReplicaId r = 0; r < 4; ++r) {
    transports.push_back(std::make_unique<transport::TcpTransport>(
        protocol::replica_node(r), static_cast<std::uint16_t>(kBasePort + r),
        peers));
    if (!transports.back()->start()) {
      std::fprintf(stderr, "replica %u: failed to listen on port %u\n", r,
                   kBasePort + r);
      return 1;
    }
  }
  auto client_transport = std::make_unique<transport::TcpTransport>(
      protocol::client_node(kClient), /*listen_port=*/0, peers);
  if (!client_transport->start()) {
    std::fprintf(stderr, "client: failed to start\n");
    return 1;
  }

  core::ReplicaRuntimeConfig config;
  config.num_pillars = kPillars;
  config.protocol.num_pillars = kPillars;
  config.protocol.checkpoint_interval = 100;
  config.protocol.window = 400;

  std::vector<std::unique_ptr<core::CopReplica>> replicas;
  for (protocol::ReplicaId r = 0; r < 4; ++r) {
    replicas.push_back(std::make_unique<core::CopReplica>(
        r, config, std::make_unique<app::NullService>(32), *crypto,
        *transports[r]));
    replicas.back()->start();
  }

  client::ClientConfig client_config;
  client_config.id = kClient;
  client_config.num_pillars = kPillars;
  client::Client client(client_config, *crypto, *client_transport);
  client.start();

  std::printf("invoking 100 operations over TCP...\n");
  for (int i = 0; i < 100; ++i) {
    auto reply = client.invoke(to_bytes("tcp-op-" + std::to_string(i)));
    if (!reply || reply->size() != 32) {
      std::fprintf(stderr, "operation %d failed\n", i);
      return 1;
    }
  }
  std::printf("100/100 complete; mean latency %.0f us, p99 %llu us\n",
              client.latencies().mean(),
              static_cast<unsigned long long>(client.latencies().percentile(0.99)));

  client.stop();
  for (auto& replica : replicas) replica->stop();
  for (auto& transport : transports) transport->shutdown();
  client_transport->shutdown();
  std::printf("done.\n");
  return 0;
}
