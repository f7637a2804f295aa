// Concurrency stress for the hot handoff paths, aimed at ThreadSanitizer.
//
// Functional assertions are deliberately coarse (counts, ordering); the
// point is to generate real contention on BoundedQueue and on the
// pillar -> execution stage -> outbound path so a TSan build (preset
// `tsan`) can observe every lock acquisition pattern under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "app/null_service.hpp"
#include "common/queue.hpp"
#include "core/execution_stage.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

TEST(RaceStress, BoundedQueueManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 10'000;

  BoundedQueue<int> queue(64);
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::vector<std::jthread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        // Alternate blocking and timed pops so both wait paths run hot.
        auto item = (consumed_count.load(std::memory_order_relaxed) % 2 == 0)
                        ? queue.pop()
                        : queue.pop_for(std::chrono::milliseconds(5));
        if (item) {
          consumed_sum.fetch_add(*item, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_relaxed);
        } else if (queue.closed() && queue.empty()) {
          return;
        }
      }
    });
  }

  std::vector<std::jthread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        // Mix try_push and blocking push: try_push exercises the
        // full-queue bailout, push the not-full wait.
        if (!queue.try_push(value)) ASSERT_TRUE(queue.push(value));
      }
    });
  }

  producers.clear();  // join producers
  queue.close();
  consumers.clear();  // join consumers

  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed_count.load(), n);
  EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
}

TEST(RaceStress, BoundedQueueCloseRacesWithWaiters) {
  // close() must wake every blocked producer and consumer exactly once,
  // with no lost wakeups and no touch-after-close.
  for (int round = 0; round < 50; ++round) {
    BoundedQueue<int> queue(2);
    std::vector<std::jthread> waiters;
    for (int t = 0; t < 2; ++t)
      waiters.emplace_back([&] {
        while (queue.pop()) {
        }
      });
    for (int t = 0; t < 2; ++t)
      waiters.emplace_back([&] {
        int v = 0;
        while (queue.push(v++)) {
        }
      });
    std::this_thread::yield();
    queue.close();
    waiters.clear();
    EXPECT_TRUE(queue.closed());
  }
}

// Four threads play the pillars of one replica: each commits its own
// sequence slice c(p,i) = p + i*NP out of order-of-arrival, and the
// execution stage re-serializes, executes, seals and sends every reply. A
// bystander thread polls the stats/next_seq accessors the whole time, the
// way tests and monitoring do.
TEST(RaceStress, PillarsToExecutionStageToOutbound) {
  constexpr std::uint32_t kPillars = 4;
  constexpr SeqNum kPerPillar = 1'000;

  ReplicaRuntimeConfig config;
  config.num_pillars = kPillars;
  config.protocol.num_pillars = kPillars;
  config.protocol.checkpoint_interval = 100;
  config.protocol.window = 400;

  auto crypto = crypto::make_real_crypto(7);
  app::NullService service(4);
  FakeTransport transport;
  ExecutionStage stage(/*self=*/0, config, service, *crypto, transport);

  // Checkpoint signals are mailed to the owning pillar and picked up by
  // its poll (pre-execution offload); this pump plays all four pillars'
  // poll loops, racing the watermark/mailbox reads against admission.
  std::atomic<std::uint64_t> checkpoint_commands{0};
  std::atomic<bool> pump_stop{false};
  std::jthread pump([&] {
    std::vector<PillarCommand> out;
    while (!pump_stop.load(std::memory_order_acquire)) {
      const auto now = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
      for (std::uint32_t p = 0; p < kPillars; ++p) {
        out.clear();
        stage.poll_pillar(p, static_cast<std::uint64_t>(now), out);
        for (const PillarCommand& cmd : out)
          if (std::holds_alternative<StartCheckpoint>(cmd))
            checkpoint_commands.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  stage.start();

  std::atomic<bool> done{false};
  std::jthread observer([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      ExecutionStats stats = stage.stats();
      EXPECT_GE(stats.last_executed_seq, last);
      last = stats.last_executed_seq;
      (void)stage.next_seq();
      std::this_thread::yield();
    }
  });

  {
    std::vector<std::jthread> pillars;
    for (std::uint32_t p = 0; p < kPillars; ++p) {
      pillars.emplace_back([&, p] {
        for (SeqNum i = 0; i < kPerPillar; ++i) {
          const SeqNum seq = p + i * kPillars;
          if (seq == 0) continue;  // genesis; pillar 0 starts at NP
          // Stay inside the watermark window, as a real pillar would:
          // checkpoint stability bounds how far commits may run ahead.
          while (seq >= stage.next_seq() + config.protocol.window)
            std::this_thread::yield();
          auto requests = std::make_shared<std::vector<Request>>();
          Request req;
          req.client = 1001 + p;
          req.id = static_cast<RequestId>(i + 1);
          req.payload = to_bytes("x");
          requests->push_back(std::move(req));
          // Stability basis as a real pillar would stamp it: the commit
          // is always inside the window authorized by its checkpoint.
          const SeqNum basis =
              seq > config.protocol.window ? seq - config.protocol.window : 0;
          stage.admit(CommittedBatch{seq, 0, requests, p, basis});
        }
      });
    }
  }  // join pillars

  const SeqNum last_seq = kPillars * kPerPillar - 1;
  for (int spin = 0; spin < 2'000; ++spin) {
    if (stage.stats().last_executed_seq >= last_seq) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Give the polls time to drain the checkpoint mailboxes of the signals
  // execution just mailed.
  const std::uint64_t expected_checkpoints =
      last_seq / config.protocol.checkpoint_interval;
  for (int spin = 0; spin < 2'000; ++spin) {
    if (checkpoint_commands.load(std::memory_order_relaxed) >=
        expected_checkpoints)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pump_stop.store(true, std::memory_order_release);
  pump.join();
  done.store(true, std::memory_order_relaxed);
  stage.stop();

  ExecutionStats stats = stage.stats();
  EXPECT_EQ(stats.last_executed_seq, last_seq);
  EXPECT_EQ(stats.requests_executed, last_seq);
  EXPECT_EQ(checkpoint_commands.load(), expected_checkpoints);
  EXPECT_EQ(transport.sent_count(), last_seq) << "one reply per request";
  EXPECT_EQ(stats.replies_sent, last_seq);
}

// Checkpoint install truncating the reorder ring while every pillar is
// mid-publish and the exec drain is consuming: the worst-case composition
// of pre-execution offload (lock-free single-writer slots) with state
// transfer (frontier jump + discard of the admitted prefix). The pillars
// keep publishing stale sequence numbers after the install lands; those
// must self-heal (be dropped or reclaimed) without a torn slot, and
// everything past the installed checkpoint must still execute exactly
// once, in order.
TEST(RaceStress, InstallTruncationRacesPillarPublishAndDrain) {
  constexpr std::uint32_t kPillars = 2;
  constexpr SeqNum kInstallSeq = 200;
  constexpr SeqNum kLastSeq = 600;

  ReplicaRuntimeConfig config;
  config.num_pillars = kPillars;
  config.protocol.num_pillars = kPillars;
  config.protocol.checkpoint_interval = 100;
  config.protocol.window = 400;

  auto crypto = crypto::make_real_crypto(7);

  // A donor stage produces the checkpoint artifact the laggard installs.
  Bytes artifact;
  crypto::Digest digest;
  {
    ReplicaRuntimeConfig donor_config = config;
    donor_config.num_pillars = 1;
    donor_config.protocol.num_pillars = 1;
    app::NullService donor_service(4);
    FakeTransport donor_transport;
    ExecutionStage donor(/*self=*/1, donor_config, donor_service, *crypto,
                         donor_transport);
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<std::pair<crypto::Digest, Bytes>> snap;
    donor.set_snapshot_fn(
        [&](SeqNum seq, const crypto::Digest& d, Bytes a) {
          if (seq != kInstallSeq) return;
          std::lock_guard lock(mutex);
          snap.emplace(d, std::move(a));
          cv.notify_all();
        });
    donor.start();
    for (SeqNum s = 1; s <= kInstallSeq; ++s) {
      auto requests = std::make_shared<std::vector<Request>>();
      Request req;
      req.client = 1001;
      req.id = static_cast<RequestId>(s);
      req.payload = to_bytes("x");
      requests->push_back(std::move(req));
      donor.admit(CommittedBatch{s, 0, requests, 0});
    }
    {
      std::unique_lock lock(mutex);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                              [&] { return snap.has_value(); }));
      digest = snap->first;
      artifact = std::move(snap->second);
    }
    donor.stop();
  }

  app::NullService service(4);
  FakeTransport transport;
  ExecutionStage stage(/*self=*/0, config, service, *crypto, transport);
  stage.start();

  // Pillar poll pump: watermark and checkpoint-mailbox reads racing the
  // truncation and the publishes.
  std::atomic<bool> pump_stop{false};
  std::jthread pump([&] {
    std::vector<PillarCommand> out;
    while (!pump_stop.load(std::memory_order_acquire)) {
      const auto now = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
      for (std::uint32_t p = 0; p < kPillars; ++p) {
        out.clear();
        stage.poll_pillar(p, static_cast<std::uint64_t>(now), out);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Seq 1 is never committed, so the frontier stays parked at 1 and the
  // ring fills with out-of-order publishes — exactly the state a real
  // laggard is in when state transfer completes.
  std::promise<bool> installed;
  auto install_result = installed.get_future();
  {
    std::vector<std::jthread> pillars;
    for (std::uint32_t p = 0; p < kPillars; ++p) {
      pillars.emplace_back([&, p] {
        for (SeqNum seq = p; seq <= kLastSeq; seq += kPillars) {
          if (seq <= 1) continue;  // genesis + the withheld frontier
          while (seq >= stage.next_seq() + config.protocol.window)
            std::this_thread::yield();
          auto requests = std::make_shared<std::vector<Request>>();
          Request req;
          req.client = 2001 + p;
          req.id = static_cast<RequestId>(seq);
          req.payload = to_bytes("x");
          requests->push_back(std::move(req));
          const SeqNum basis =
              seq > config.protocol.window ? seq - config.protocol.window : 0;
          stage.admit(CommittedBatch{seq, 0, requests, p, basis});
        }
      });
    }
    // Land the install while the pillars are mid-flight.
    stage.submit_install(InstallState{
        kInstallSeq, digest, std::move(artifact),
        [&installed](bool ok) { installed.set_value(ok); }});
  }  // join pillars

  ASSERT_EQ(install_result.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_TRUE(install_result.get());
  for (int spin = 0; spin < 2'000; ++spin) {
    if (stage.stats().last_executed_seq >= kLastSeq) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pump_stop.store(true, std::memory_order_release);
  pump.join();
  stage.stop();

  ExecutionStats stats = stage.stats();
  EXPECT_EQ(stats.state_installs, 1u);
  EXPECT_EQ(stats.installed_seq, kInstallSeq);
  EXPECT_EQ(stats.last_executed_seq, kLastSeq);
  // Everything before the checkpoint was truncated unexecuted; everything
  // after it ran exactly once.
  EXPECT_EQ(stats.requests_executed, kLastSeq - kInstallSeq);
  EXPECT_EQ(stats.replies_sent, kLastSeq - kInstallSeq);
}

}  // namespace
}  // namespace copbft::test
