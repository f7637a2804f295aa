// Throughput of the *threaded runtime* (real crypto, real queues,
// in-process transport) for all three architectures, with all four
// replicas and their clients in one process on this machine's cores.
//
// Each row prints the host's hardware thread count next to the figure. The
// paper's core sweeps (fig5*, fig8) come from the simulator because its
// testbed gave every replica a machine of its own with 2x6 cores (24
// hardware threads), not because real threads cannot be measured: this
// bench runs the exact code paths users of the library run, under load.
#include <atomic>
#include <cstdio>
#include <thread>

#include "app/null_service.hpp"
#include "client/client.hpp"
#include "common/time.hpp"
#include "core/cop_replica.hpp"
#include "core/smart_replica.hpp"
#include "core/top_replica.hpp"
#include "transport/inproc.hpp"

namespace {

using namespace copbft;

double run_arch(const char* name, int arch, std::uint32_t pillars,
                std::uint64_t duration_us) {
  transport::InprocNetwork network;
  auto crypto = crypto::make_real_crypto(3);

  core::ReplicaRuntimeConfig cfg;
  cfg.protocol.checkpoint_interval = 200;
  cfg.protocol.window = 800;
  cfg.protocol.view_change_timeout_us = 30'000'000;
  cfg.protocol.max_active_proposals = (arch == 2) ? 1 : 8;
  cfg.num_pillars = (arch == 0) ? pillars : 1;
  cfg.protocol.num_pillars = cfg.num_pillars;

  std::vector<std::unique_ptr<core::Replica>> replicas;
  for (protocol::ReplicaId r = 0; r < 4; ++r) {
    auto service = std::make_unique<app::NullService>(8);
    auto& endpoint = network.endpoint(protocol::replica_node(r));
    if (arch == 0) {
      replicas.push_back(std::make_unique<core::CopReplica>(
          r, cfg, std::move(service), *crypto, endpoint));
    } else if (arch == 1) {
      replicas.push_back(std::make_unique<core::TopReplica>(
          r, cfg, std::move(service), *crypto, endpoint));
    } else {
      replicas.push_back(std::make_unique<core::SmartReplica>(
          r, cfg, std::move(service), *crypto, endpoint));
    }
  }
  for (auto& replica : replicas) replica->start();

  std::vector<std::unique_ptr<client::Client>> clients;
  for (int i = 0; i < 4; ++i) {
    client::ClientConfig ccfg;
    ccfg.id = protocol::kClientIdBase + static_cast<protocol::ClientId>(i);
    ccfg.num_pillars = cfg.num_pillars;
    ccfg.window = 64;
    ccfg.retransmit_timeout_us = 2'000'000;
    auto& endpoint = network.endpoint(protocol::client_node(ccfg.id));
    clients.push_back(
        std::make_unique<client::Client>(ccfg, *crypto, endpoint));
    clients.back()->start();
  }

  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> completed{0};
  std::uint64_t start = now_us();

  // Closed loop: each completion immediately issues the next request.
  std::function<void(client::Client&)> pump = [&](client::Client& c) {
    c.invoke_async(Bytes{0x42}, 0, [&running, &completed, &pump, &c](
                                       Bytes, std::uint64_t) {
      ++completed;
      if (running.load(std::memory_order_relaxed)) pump(c);
    });
  };
  for (auto& c : clients)
    for (int k = 0; k < 32; ++k) pump(*c);

  while (now_us() - start < duration_us)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  running = false;
  for (auto& c : clients) c->drain();
  std::uint64_t elapsed = now_us() - start;
  double ops = static_cast<double>(completed.load()) * 1e6 /
               static_cast<double>(elapsed);

  for (auto& c : clients) c->stop();
  for (auto& replica : replicas) replica->stop();

  std::printf("%-6s %8.0f ops/s (%llu ops in %.2fs, host has %u hardware "
              "threads)\n",
              name, ops, static_cast<unsigned long long>(completed.load()),
              static_cast<double>(elapsed) / 1e6,
              std::thread::hardware_concurrency());
  std::fflush(stdout);
  return ops;
}

}  // namespace

int main() {
  std::printf("# micro_runtime — threaded runtime end-to-end throughput\n");
  std::printf("# real HMAC-SHA256, in-process transport, 4 replicas, "
              "4 clients x window 64\n");
  std::uint64_t duration = 2'000'000;  // 2 s per architecture
  run_arch("COP", 0, 2, duration);
  run_arch("TOP", 1, 1, duration);
  run_arch("SMaRt", 2, 1, duration);
  return 0;
}
