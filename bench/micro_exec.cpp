// Microbenchmark of execution-stage request throughput, isolating the
// §4.3 post-execution offload and the stats de-locking from the rest of
// the replica.
//
// Four producer threads play the pillars (sequence slices c(p,i) =
// p + i*NP, submitted slightly out of order), a bystander thread polls
// stats() continuously the way monitoring does, and the stage runs with
// real HMAC sealing. Two modes per run:
//
//   inline    — no ReplyFn installed: the stage post-processes, seals and
//               sends every reply on its own thread (the pre-offload
//               behaviour, and still the TOP/SMaRt baseline path).
//   offloaded — ReplyFn routes each ReplyTask to the originating
//               pillar's reply lane, where a consumer thread seals +
//               sends (paper §4.3.2); the exec thread only orders and
//               executes.
//
// Rebuild with -DCOP_ENABLE_METRICS=OFF for the "without metrics"
// comparison the de-locking work cares about: the stage counters are
// plain single-writer atomics either way, but the metrics registry's
// counters compile out entirely.
//
// COPBFT_MICRO_EXEC_OPS sets the per-mode request count (default
// 200000; CI bench-smoke uses a small value).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "app/null_service.hpp"
#include "common/queue.hpp"
#include "common/time.hpp"
#include "core/execution_stage.hpp"
#include "core/outbound.hpp"

namespace {

using namespace copbft;
using namespace copbft::core;
using namespace copbft::protocol;

/// Counts and discards outbound frames; the egress cost we want in the
/// measurement is sealing, not socket I/O.
class CountingTransport final : public transport::Transport {
 public:
  void register_sink(transport::LaneId,
                     std::shared_ptr<transport::FrameSink>) override {}
  bool send(crypto::KeyNodeId, transport::LaneId, Bytes frame) override {
    bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
    sent_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  void shutdown() override {}

  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

constexpr std::uint32_t kPillars = 4;

double run_mode(bool offload, SeqNum per_pillar) {
  ReplicaRuntimeConfig config;
  config.num_pillars = kPillars;
  config.protocol.num_pillars = kPillars;
  config.protocol.checkpoint_interval = 200;
  config.protocol.window = 800;

  auto crypto = crypto::make_real_crypto(11);
  app::NullService service(4);
  CountingTransport transport;
  ExecutionStage stage(/*self=*/0, config, service, *crypto, transport);

  std::vector<std::unique_ptr<BoundedQueue<ReplyTask>>> lanes;
  std::vector<std::jthread> repliers;
  if (offload) {
    for (std::uint32_t p = 0; p < kPillars; ++p)
      lanes.push_back(std::make_unique<BoundedQueue<ReplyTask>>(1024));
    stage.set_reply_fn(
        [&](ReplyTask& task) { return lanes[task.pillar]->try_push_ref(task); });
    for (std::uint32_t p = 0; p < kPillars; ++p) {
      repliers.emplace_back([&, p] {
        while (auto task = lanes[p]->pop()) {
          Bytes result = service.post_process((*task->requests)[task->index],
                                              std::move(task->result));
          protocol::Message msg =
              protocol::Reply{task->view,    task->client, task->request,
                              /*replica=*/0, std::move(result), {}};
          transport.send(client_node(task->client), /*lane=*/0,
                         seal_message(msg, *crypto, replica_node(0),
                                      {client_node(task->client)}));
        }
      });
    }
  }
  stage.start();

  // Monitoring bystander: hammers the de-locked stats() snapshot.
  std::atomic<bool> done{false};
  std::jthread observer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)stage.stats();
      (void)stage.next_seq();
      std::this_thread::yield();
    }
  });

  const std::uint64_t start = now_us();
  {
    std::vector<std::jthread> pillars;
    for (std::uint32_t p = 0; p < kPillars; ++p) {
      pillars.emplace_back([&, p] {
        for (SeqNum i = 0; i < per_pillar; ++i) {
          const SeqNum seq = p + i * kPillars;
          if (seq == 0) continue;  // genesis
          while (seq >= stage.next_seq() + config.protocol.window)
            std::this_thread::yield();
          auto requests = std::make_shared<std::vector<Request>>();
          Request req;
          req.client = 1001 + p;
          req.id = static_cast<RequestId>(i + 1);
          req.payload = to_bytes("micro");
          requests->push_back(std::move(req));
          const SeqNum basis =
              seq > config.protocol.window ? seq - config.protocol.window : 0;
          stage.submit(CommittedBatch{seq, 0, requests, p, basis});
        }
      });
    }
  }  // join producers

  const SeqNum last_seq = kPillars * per_pillar - 1;
  while (stage.stats().last_executed_seq < last_seq)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Wall time through last execution; offloaded replies may still drain.
  const std::uint64_t exec_elapsed = now_us() - start;

  stage.stop();
  for (auto& lane : lanes) lane->close();
  repliers.clear();
  while (transport.sent() < last_seq)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  done.store(true, std::memory_order_relaxed);

  ExecutionStats stats = stage.stats();
  const double ops = static_cast<double>(stats.requests_executed) * 1e6 /
                     static_cast<double>(exec_elapsed);
  std::printf(
      "%-9s %9.0f ops/s  (%llu reqs in %.3fs, %llu/%llu replies offloaded)\n",
      offload ? "offloaded" : "inline", ops,
      static_cast<unsigned long long>(stats.requests_executed),
      static_cast<double>(exec_elapsed) / 1e6,
      static_cast<unsigned long long>(stats.replies_offloaded),
      static_cast<unsigned long long>(stats.replies_sent));
  std::fflush(stdout);
  return ops;
}

}  // namespace

int main() {
  SeqNum per_pillar = 50'000;  // 200k requests per mode
  if (const char* env = std::getenv("COPBFT_MICRO_EXEC_OPS")) {
    const long long total = std::atoll(env);
    if (total > 0)
      per_pillar = static_cast<SeqNum>(total) / kPillars + 1;
  }
  std::printf("# micro_exec — execution-stage throughput, %u producer "
              "pillars, real HMAC reply sealing\n",
              kPillars);
  std::printf("# host has %u hardware threads\n",
              std::thread::hardware_concurrency());
  std::printf("# metrics registry: %s (rebuild with -DCOP_ENABLE_METRICS=OFF "
              "to compare)\n",
              COP_METRICS_ENABLED ? "ON" : "OFF");
  const double inline_ops = run_mode(/*offload=*/false, per_pillar);
  const double offload_ops = run_mode(/*offload=*/true, per_pillar);
  std::printf("offload speedup: %.2fx\n",
              inline_ops > 0 ? offload_ops / inline_ops : 0.0);
  return 0;
}
