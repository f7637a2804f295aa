// Microbenchmark of execution-stage request throughput, isolating the
// stage and its stats de-locking from the rest of the replica.
//
// Four producer threads play the pillars (sequence slices c(p,i) =
// p + i*NP, admitted slightly out of order), a bystander thread polls
// stats() continuously the way monitoring does, and the stage orders,
// executes, post-processes, seals (real HMAC) and sends every reply on
// its own thread.
//
// Rebuild with -DCOP_ENABLE_METRICS=OFF for the "without metrics"
// comparison the de-locking work cares about: the stage counters are
// plain single-writer atomics either way, but the metrics registry's
// counters compile out entirely.
//
// COPBFT_MICRO_EXEC_OPS sets the request count (default 200000; CI
// bench-smoke uses a small value).
//
// The checkpoint cell then runs a KvStore shaped like perfbench's
// kv_batched (16,384 preloaded keys, 1 KiB values) at a fixed size: 4 puts
// per instance, a checkpoint every 1,000 instances (4,000 puts per
// interval; kv_batched does about 3,300), with the checkpoint handed to a
// StateTransferManager as CopReplica wires it. It prints the stage
// thread's CPU time at each checkpoint boundary and over each whole
// interval, so work moved from the boundary into the puts shows, and what
// encoding one version costs the manager when a peer asks.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <thread>
#include <vector>

#include "app/kv_store.hpp"
#include "app/null_service.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/execution_stage.hpp"
#include "core/state_transfer.hpp"

namespace {

using namespace copbft;
using namespace copbft::core;
using namespace copbft::protocol;

/// CPU time of the calling thread.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Counts and discards outbound frames; the egress cost we want in the
/// measurement is sealing, not socket I/O. With `time_sends` it also notes
/// the sender's thread CPU time at the last send (the stage sends every
/// reply itself); that costs a system call per send.
class CountingTransport final : public transport::Transport {
 public:
  explicit CountingTransport(bool time_sends = false)
      : time_sends_(time_sends) {}

  void register_sink(transport::LaneId,
                     std::shared_ptr<transport::FrameSink>) override {}
  bool send(crypto::KeyNodeId, transport::LaneId, Bytes frame) override {
    bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
    sent_.fetch_add(1, std::memory_order_relaxed);
    if (time_sends_)
      last_send_cpu_ns_.store(thread_cpu_ns(), std::memory_order_relaxed);
    return true;
  }
  void shutdown() override {}

  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t last_send_cpu_ns() const {
    return last_send_cpu_ns_.load(std::memory_order_relaxed);
  }

 private:
  const bool time_sends_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> last_send_cpu_ns_{0};
};

constexpr std::uint32_t kPillars = 4;

void run(SeqNum per_pillar) {
  ReplicaRuntimeConfig config;
  config.num_pillars = kPillars;
  config.protocol.num_pillars = kPillars;
  config.protocol.checkpoint_interval = 200;
  config.protocol.window = 800;

  auto crypto = crypto::make_real_crypto(11);
  app::NullService service(4);
  CountingTransport transport;
  ExecutionStage stage(/*self=*/0, config, service, *crypto, transport);
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
          stage.admit(CommittedBatch{seq, 0, requests, p, basis});
        }
      });
    }
  }  // join producers

  const SeqNum last_seq = kPillars * per_pillar - 1;
  while (stage.stats().last_executed_seq < last_seq)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Each reply is sent before its seq counts as executed.
  const std::uint64_t exec_elapsed = now_us() - start;

  stage.stop();
  done.store(true, std::memory_order_relaxed);

  ExecutionStats stats = stage.stats();
  const double ops = static_cast<double>(stats.requests_executed) * 1e6 /
                     static_cast<double>(exec_elapsed);
  std::printf("%9.0f ops/s  (%llu reqs in %.3fs, %llu replies sent)\n", ops,
              static_cast<unsigned long long>(stats.requests_executed),
              static_cast<double>(exec_elapsed) / 1e6,
              static_cast<unsigned long long>(transport.sent()));
  std::fflush(stdout);
}

double median_ms(std::vector<std::uint64_t> ns) {
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) / 1e6;
}

double max_ms(const std::vector<std::uint64_t>& ns) {
  return static_cast<double>(*std::max_element(ns.begin(), ns.end())) / 1e6;
}

void run_checkpoint_cell() {
  constexpr std::uint32_t kKeys = 16'384;
  constexpr std::size_t kValueBytes = 1024;
  constexpr std::uint32_t kPutsPerInstance = 4;
  constexpr SeqNum kInterval = 1'000;
  constexpr SeqNum kIntervals = 6;
  constexpr std::uint32_t kClients = 2;

  ReplicaRuntimeConfig config;
  config.num_pillars = 1;
  config.protocol.num_pillars = 1;
  config.protocol.checkpoint_interval = kInterval;
  config.protocol.window = 2 * kInterval;

  auto crypto = crypto::make_real_crypto(11);
  app::KvStore service(*crypto);
  const auto key = [](std::uint64_t k) { return "key-" + std::to_string(k); };
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    Request req;
    req.payload = app::KvOp{app::KvOpCode::kPut, key(k),
                            Bytes(kValueBytes, static_cast<Byte>(k))}
                      .encode();
    service.execute(req);
  }

  CountingTransport transport(/*time_sends=*/true);
  ExecutionStage stage(/*self=*/0, config, service, *crypto, transport);
  StateTransferManager manager(/*self=*/0, config, *crypto, transport, stage,
                               {});
  // As CopReplica: every checkpoint goes to the manager. Stability is
  // noted at once, so the manager drops the previous version on its own
  // thread, as on a replica whose checkpoints stabilise.
  stage.set_snapshot_fn([&manager](SeqNum seq, const crypto::Digest& digest,
                                   CheckpointHandOff checkpoint) {
    manager.store_checkpoint(seq, digest, std::move(checkpoint));
    manager.note_stable(seq, digest, {0, 1, 2});
  });
  // Runs on the stage thread right after the checkpoint's hand-off.
  std::vector<std::uint64_t> boundary_ns;
  std::vector<std::uint64_t> interval_ns;
  std::uint64_t last_checkpoint_ns = 0;
  stage.set_command_fn([&](std::uint32_t, PillarCommand command) {
    if (!std::holds_alternative<StartCheckpoint>(command)) return;
    const std::uint64_t now = thread_cpu_ns();
    boundary_ns.push_back(now - transport.last_send_cpu_ns());
    if (last_checkpoint_ns != 0)
      interval_ns.push_back(now - last_checkpoint_ns);
    last_checkpoint_ns = now;
  });
  manager.start();
  stage.start();

  // The first interval warms up; the next kIntervals are measured.
  const SeqNum last_seq = (kIntervals + 1) * kInterval;
  Rng rng(7);
  std::vector<RequestId> next_id(kClients, 0);
  for (SeqNum seq = 1; seq <= last_seq; ++seq) {
    while (seq >= stage.next_seq() + config.protocol.window)
      std::this_thread::yield();
    auto requests = std::make_shared<std::vector<Request>>();
    for (std::uint32_t i = 0; i < kPutsPerInstance; ++i) {
      const auto client = static_cast<std::uint32_t>(rng.below(kClients));
      Request req;
      req.client = 1001 + client;
      req.id = ++next_id[client];
      req.payload = app::KvOp{app::KvOpCode::kPut, key(rng.below(kKeys)),
                              Bytes(kValueBytes, static_cast<Byte>(seq))}
                        .encode();
      requests->push_back(std::move(req));
    }
    const SeqNum basis =
        seq > config.protocol.window ? seq - config.protocol.window : 0;
    stage.admit(CommittedBatch{seq, 0, requests, 0, basis});
  }
  while (stage.stats().last_executed_seq < last_seq)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stage.stop();
  manager.stop();

  // What one peer's StateRequest costs the manager thread.
  const std::uint64_t encode_start = now_us();
  const std::size_t encoded = service.version()->encode().size();
  const std::uint64_t encode_us = now_us() - encode_start;

  std::printf("# checkpoint cell: KvStore %u keys x %zu B, %u puts per "
              "instance, a checkpoint every %llu instances, %zu intervals\n",
              kKeys, kValueBytes, kPutsPerInstance,
              static_cast<unsigned long long>(kInterval), interval_ns.size());
  std::printf("stage CPU at the checkpoint boundary: median %.3f ms, max "
              "%.3f ms\n",
              median_ms(boundary_ns), max_ms(boundary_ns));
  std::printf("stage CPU per interval (%llu puts): median %.1f ms, max "
              "%.1f ms\n",
              static_cast<unsigned long long>(kInterval * kPutsPerInstance),
              median_ms(interval_ns), max_ms(interval_ns));
  std::printf("encoding one version on request: %.1f ms (%zu bytes)\n",
              static_cast<double>(encode_us) / 1e3, encoded);
  std::fflush(stdout);
}

}  // namespace

int main() {
  SeqNum per_pillar = 50'000;  // 200k requests
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
  run(per_pillar);
  run_checkpoint_cell();
  return 0;
}
