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
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "app/kv_store.hpp"
#include "app/null_service.hpp"
#include "common/queue.hpp"
#include "core/execution_stage.hpp"
#include "protocol/wire.hpp"
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
        // Mix try_push_ref and blocking push: try_push_ref exercises the
        // full-queue bailout, push the not-full wait.
        if (!queue.try_push_ref(value)) {
          ASSERT_TRUE(queue.push(value));
        }
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

  // Checkpoint commands leave the stage thread through the hook while the
  // pillars below push commits into its inbox.
  std::atomic<std::uint64_t> checkpoint_commands{0};
  stage.set_command_fn([&](std::uint32_t, PillarCommand cmd) {
    if (std::holds_alternative<StartCheckpoint>(cmd))
      checkpoint_commands.fetch_add(1, std::memory_order_relaxed);
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
  // The last checkpoint command may still be on its way out of the hook.
  const std::uint64_t expected_checkpoints =
      last_seq / config.protocol.checkpoint_interval;
  for (int spin = 0; spin < 2'000; ++spin) {
    if (checkpoint_commands.load(std::memory_order_relaxed) >=
        expected_checkpoints)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true, std::memory_order_relaxed);
  stage.stop();

  ExecutionStats stats = stage.stats();
  EXPECT_EQ(stats.last_executed_seq, last_seq);
  EXPECT_EQ(stats.requests_executed, last_seq);
  EXPECT_EQ(checkpoint_commands.load(), expected_checkpoints);
  EXPECT_EQ(transport.sent_count(), last_seq) << "one reply per request";
  EXPECT_EQ(stats.replies_sent, last_seq);
}

// Checkpoint install truncating the reorder buffer while every pillar is
// mid-admit and the exec drain is consuming: state transfer (frontier
// jump + discard of the admitted prefix) racing concurrent producers on
// the stage's one inbox. The pillars keep admitting stale sequence
// numbers after the install lands; those must be dropped, and everything
// past the installed checkpoint must still execute exactly once, in
// order.
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
        [&](SeqNum seq, const crypto::Digest& d, CheckpointHandOff h) {
          if (seq != kInstallSeq) return;
          std::lock_guard lock(mutex);
          snap.emplace(d, h.encode());
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

  // Seq 1 is never committed, so the frontier stays parked at 1 and the
  // reorder buffer fills with out-of-order commits — exactly the state a
  // real laggard is in when state transfer completes.
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

// The split between taking a version and encoding it: the stage keeps
// rewriting the same 64 keys while one thread encodes the checkpoint
// versions it handed off, in a loop, and another drops them out of order.
// Every encoding must equal the state at its checkpoint, which the test
// derives from the put sequence without a KvStore.
TEST(RaceStress, VersionEncodeAndDropRaceExecution) {
  constexpr std::uint64_t kKeys = 64;
  constexpr SeqNum kInterval = 20;
  constexpr SeqNum kLastSeq = 2'000;

  ReplicaRuntimeConfig config;
  config.num_pillars = 1;
  config.protocol.num_pillars = 1;
  config.protocol.checkpoint_interval = kInterval;
  config.protocol.window = 4 * kInterval;

  const auto key = [](SeqNum seq) {
    return "key-" + std::to_string(seq * 7 % kKeys);
  };
  const auto value = [](SeqNum seq) {
    return to_bytes("value-" + std::to_string(seq));
  };
  // [n u32 | (key bytes, value bytes) * n], sorted by key, per checkpoint.
  std::map<SeqNum, Bytes> reference;
  {
    std::map<std::string, Bytes> model;
    for (SeqNum seq = 1; seq <= kLastSeq; ++seq) {
      model[key(seq)] = value(seq);
      if (seq % kInterval != 0) continue;
      Bytes& out = reference[seq];
      WireWriter w(out);
      w.u32(static_cast<std::uint32_t>(model.size()));
      for (const auto& [k, v] : model) {
        w.bytes(to_bytes(k));
        w.bytes(v);
      }
    }
  }

  auto crypto = crypto::make_real_crypto(7);
  app::KvStore service(*crypto);
  FakeTransport transport;
  ExecutionStage stage(/*self=*/0, config, service, *crypto, transport);
  std::mutex mutex;
  std::vector<std::pair<SeqNum, std::shared_ptr<const app::StateVersion>>>
      held;
  stage.set_snapshot_fn(
      [&](SeqNum seq, const crypto::Digest&, CheckpointHandOff checkpoint) {
        std::lock_guard lock(mutex);
        held.emplace_back(seq, std::move(checkpoint.service_state));
      });

  std::atomic<bool> executing{true};
  std::atomic<std::uint64_t> encodings{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> drops{0};
  {
    std::jthread encoder([&] {
      for (std::size_t round = 0;; ++round) {
        std::pair<SeqNum, std::shared_ptr<const app::StateVersion>> pick;
        {
          std::lock_guard lock(mutex);
          if (held.empty()) {
            if (!executing.load(std::memory_order_relaxed)) return;
          } else {
            pick = held[round % held.size()];
          }
        }
        if (!pick.second) {
          std::this_thread::yield();
          continue;
        }
        if (pick.second->encode() != reference.at(pick.first))
          mismatches.fetch_add(1, std::memory_order_relaxed);
        encodings.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::jthread dropper([&] {
      for (std::size_t round = 0;; ++round) {
        std::shared_ptr<const app::StateVersion> dropped;
        {
          std::lock_guard lock(mutex);
          const bool keep_some = executing.load(std::memory_order_relaxed);
          if (held.size() > (keep_some ? 3u : 0u)) {
            // Out of order: any held version, not just the oldest.
            const auto at = held.begin() + static_cast<std::ptrdiff_t>(
                                               round % held.size());
            dropped = std::move(at->second);
            held.erase(at);
          } else if (!keep_some) {
            return;
          }
        }
        if (dropped) {
          dropped.reset();  // may free the version's buckets, off the stage
          drops.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });

    stage.start();
    for (SeqNum seq = 1; seq <= kLastSeq; ++seq) {
      while (seq >= stage.next_seq() + config.protocol.window)
        std::this_thread::yield();
      auto requests = std::make_shared<std::vector<Request>>();
      Request req;
      req.client = 1001;
      req.id = static_cast<RequestId>(seq);
      req.payload =
          app::KvOp{app::KvOpCode::kPut, key(seq), value(seq)}.encode();
      requests->push_back(std::move(req));
      const SeqNum basis =
          seq > config.protocol.window ? seq - config.protocol.window : 0;
      stage.admit(CommittedBatch{seq, 0, requests, 0, basis});
    }
    for (int spin = 0; spin < 2'000; ++spin) {
      if (stage.stats().last_executed_seq >= kLastSeq) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stage.stop();
    executing.store(false, std::memory_order_relaxed);
  }  // join encoder and dropper

  EXPECT_EQ(stage.stats().last_executed_seq, kLastSeq);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(encodings.load(), 0u);
  EXPECT_EQ(drops.load(), kLastSeq / kInterval) << "every version dropped";
  EXPECT_EQ(service.snapshot(), reference.at(kLastSeq));
}

}  // namespace
}  // namespace copbft::test
