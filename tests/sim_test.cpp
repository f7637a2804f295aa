#include <gtest/gtest.h>

#include <cstring>

#include "sim/machine.hpp"
#include "sim/nic.hpp"
#include "sim/simulation.hpp"

namespace copbft::sim {
namespace {

// ---- event queue -------------------------------------------------------

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(100, [&] { order.push_back(2); });
  q.schedule(50, [&] { order.push_back(1); });
  q.schedule(100, [&] { order.push_back(3); });  // same time: insertion order
  q.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, ScheduleInPastClampsToNow) {
  EventQueue q;
  q.schedule(100, [&] {});
  q.run_until(100);
  bool ran = false;
  q.schedule(50, [&] { ran = true; });  // in the past
  q.run_until(100);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, NestedScheduling) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] {
    ++fired;
    q.schedule_in(10, [&] { ++fired; });
  });
  q.run_until(100);
  EXPECT_EQ(fired, 2);
}

// ---- machine / scheduler -------------------------------------------------

TEST(Machine, SingleThreadSerializesTasks) {
  EventQueue events;
  CostModel costs;
  Machine m(events, costs, /*cores=*/1, "m");
  SimThread& t = m.add_thread("t");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i)
    t.post([&events, &completions]() -> double {
      completions.push_back(events.now());
      return 1000.0;  // 1 us
    });
  events.run_until(1'000'000);
  ASSERT_EQ(completions.size(), 3u);
  // Tasks start when the previous one's cost elapsed.
  EXPECT_EQ(completions[0], 0u);
  EXPECT_EQ(completions[1], 1000u);
  EXPECT_EQ(completions[2], 2000u);
}

TEST(Machine, TwoThreadsUseTwoContexts) {
  EventQueue events;
  CostModel costs;
  costs.smt_speed = 0.5;
  Machine m(events, costs, /*cores=*/1, "m");
  SimThread& a = m.add_thread("a");
  SimThread& b = m.add_thread("b");
  int done = 0;
  // Both run concurrently on the two SMT contexts of the single core; the
  // second dispatched runs at half speed.
  a.post([&]() -> double {
    ++done;
    return 1000.0;
  });
  b.post([&]() -> double {
    ++done;
    return 1000.0;
  });
  events.run_until(500);
  EXPECT_EQ(done, 2) << "both started immediately";
}

TEST(Machine, MoreThreadsThanContextsQueue) {
  EventQueue events;
  CostModel costs;
  Machine m(events, costs, /*cores=*/1, "m");
  std::vector<SimThread*> threads;
  for (int i = 0; i < 4; ++i)
    threads.push_back(&m.add_thread("t" + std::to_string(i)));
  std::vector<SimTime> starts;
  for (auto* t : threads)
    t->post([&events, &starts]() -> double {
      starts.push_back(events.now());
      return 1000.0;
    });
  events.run_until(1'000'000);
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[1], 0u) << "two contexts on one core";
  EXPECT_GT(starts[2], 0u) << "third thread had to wait";
  EXPECT_GT(starts[3], 0u);
}

TEST(Machine, SmtSlowsSharedCore) {
  EventQueue events;
  CostModel costs;
  costs.smt_speed = 0.5;
  Machine m(events, costs, /*cores=*/1, "m");
  SimThread& a = m.add_thread("a");
  SimThread& b = m.add_thread("b");
  SimTime a_done = 0, b_done = 0;
  a.post([&]() -> double { return 1000.0; });
  a.post([&a_done, &events]() -> double {
    a_done = events.now();
    return 0.0;
  });
  b.post([&]() -> double { return 1000.0; });
  b.post([&b_done, &events]() -> double {
    b_done = events.now();
    return 0.0;
  });
  events.run_until(1'000'000);
  // First dispatched ran at full speed (its start preceded the sibling's):
  // 1000 ns; the second at half speed: 2000 ns.
  EXPECT_EQ(std::min(a_done, b_done), 1000u);
  EXPECT_EQ(std::max(a_done, b_done), 2000u);
}

// ---- NIC ------------------------------------------------------------

TEST(Nic, SerializesAtBandwidth) {
  EventQueue events;
  NicPort port(events, /*bytes_per_ns=*/0.1);  // 100 MB/s
  SimTime t1 = port.transmit(1000);            // 10 us
  SimTime t2 = port.transmit(1000);            // queued behind
  EXPECT_EQ(t1, 10'000u);
  EXPECT_EQ(t2, 20'000u);
  EXPECT_EQ(port.bytes_total(), 2000u);
}

TEST(Nic, TransferIncludesPropagationAndBothPorts) {
  EventQueue events;
  CostModel costs;
  costs.nic_bytes_per_ns = 0.1;
  costs.propagation_ns = 5'000;
  Adapter a(events, costs.nic_bytes_per_ns);
  Adapter b(events, costs.nic_bytes_per_ns);
  SimTime delivered_at = 0;
  network_transfer(events, costs, a, b, 1000,
                   [&] { delivered_at = events.now(); });
  events.run_until(1'000'000);
  // 10 us tx + 5 us propagation + 10 us rx.
  EXPECT_EQ(delivered_at, 25'000u);
}

TEST(Nic, WindowCounters) {
  EventQueue events;
  NicPort port(events, 1.0);
  port.transmit(500);
  EXPECT_EQ(port.take_window_bytes(), 500u);
  port.transmit(300);
  EXPECT_EQ(port.take_window_bytes(), 300u);
  EXPECT_EQ(port.take_window_bytes(), 0u);
}

// ---- end-to-end simulation smoke tests --------------------------------

SimConfig smoke_config(SimArch arch) {
  SimConfig cfg;
  cfg.arch = arch;
  cfg.cores = 2;
  cfg.clients = 40;
  cfg.client_window = 4;
  cfg.warmup = 50 * 1'000'000ULL;    // 50 ms
  cfg.measure = 200 * 1'000'000ULL;  // 200 ms
  cfg.protocol.checkpoint_interval = 100;
  cfg.protocol.window = 400;
  cfg.protocol.view_change_timeout_us = 0;
  cfg.protocol.retransmit_interval_us = 0;
  cfg.protocol.max_active_proposals = (arch == SimArch::kSmart) ? 1 : 4;
  return cfg;
}

class SimArchSmoke : public ::testing::TestWithParam<SimArch> {};

TEST_P(SimArchSmoke, CompletesOperations) {
  SimResult result = run_simulation(smoke_config(GetParam()));
  EXPECT_GT(result.completed_ops, 100u);
  EXPECT_GT(result.throughput_ops, 1000.0);
  EXPECT_GT(result.latency_mean_us, 0.0);
  EXPECT_GT(result.leader_tx_mbps, 0.0);
  EXPECT_GT(result.instances, 0u);
}

TEST_P(SimArchSmoke, DeterministicAcrossRuns) {
  SimResult a = run_simulation(smoke_config(GetParam()));
  SimResult b = run_simulation(smoke_config(GetParam()));
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_DOUBLE_EQ(a.leader_tx_mbps, b.leader_tx_mbps);
}

// ---- bit-identical replay across the pillar-side admission path --------

/// FNV-1a over every behaviourally meaningful SimResult field, doubles
/// hashed by bit pattern: two runs agree on this digest only if they were
/// bit-identical in effect, not merely close.
std::uint64_t result_digest(const SimResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  auto mixd = [&](double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  mixd(r.throughput_ops);
  mixd(r.latency_mean_us);
  mix(r.latency_p50_us);
  mix(r.latency_p99_us);
  mixd(r.leader_tx_mbps);
  mix(r.completed_ops);
  mix(r.instances);
  mix(r.state_transfers);
  mix(r.fork_detections);
  for (std::uint64_t seq : r.replica_next_seq) mix(seq);
  for (std::uint64_t ops : r.ops_timeline) mix(ops);
  for (const auto& stage : r.leader_stages) {
    mix(stage.name.size());
    mixd(stage.busy_fraction);
    mix(stage.backlog);
  }
  mix(r.leader_reorder_peak);
  return h;
}

/// The pillars admit commits into the reorder ring themselves (§4.3.1):
/// the commit->execution path now runs on NP concurrently-modelled logic
/// threads instead of one exec inbox, and a replay must still be
/// bit-identical — including when a crash/recover cycle truncates the
/// ring via state transfer mid-run.
TEST(SimReplay, PillarAdmissionBitIdenticalAcrossReplays) {
  SimConfig cfg = smoke_config(SimArch::kCop);
  cfg.cores = 4;  // several pillars, so admission order is genuinely
                  // interleaved across logic threads
  cfg.clients = 80;
  cfg.seed = 20260808;
  cfg.protocol.retransmit_interval_us = 20'000;

  const std::uint64_t first = result_digest(run_simulation(cfg));
  for (int replay = 0; replay < 2; ++replay)
    EXPECT_EQ(result_digest(run_simulation(cfg)), first)
        << "replay " << replay << " diverged";

  // Same, composed with checkpoint install: a replica crashes, recovers,
  // and re-joins through state transfer while the others keep admitting.
  cfg.faults.push_back({60 * 1'000'000ULL, 2, SimConfig::FaultEvent::Kind::kCrash});
  cfg.faults.push_back({90 * 1'000'000ULL, 2, SimConfig::FaultEvent::Kind::kRecover});
  SimResult faulted = run_simulation(cfg);
  EXPECT_EQ(faulted.fork_detections, 0u);
  const std::uint64_t fault_digest = result_digest(faulted);
  EXPECT_NE(fault_digest, first) << "fault schedule must change the run";
  EXPECT_EQ(result_digest(run_simulation(cfg)), fault_digest)
      << "faulted replay diverged";
}

INSTANTIATE_TEST_SUITE_P(Architectures, SimArchSmoke,
                         ::testing::Values(SimArch::kCop, SimArch::kTop,
                                           SimArch::kSmart,
                                           SimArch::kSmartStar),
                         [](const auto& info) {
                           switch (info.param) {
                             case SimArch::kCop:
                               return "COP";
                             case SimArch::kTop:
                               return "TOP";
                             case SimArch::kSmart:
                               return "SMaRt";
                             default:
                               return "SMaRtStar";
                           }
                         });

TEST(SimCluster, InOrderVerificationSkipsInCop) {
  SimResult result = run_simulation(smoke_config(SimArch::kCop));
  EXPECT_GT(result.leader_core.verifications_skipped, 0u);
  EXPECT_EQ(result.leader_core.pre_verified, 0u);
}

TEST(SimCluster, SmartPreVerifiesEverything) {
  SimResult result = run_simulation(smoke_config(SimArch::kSmart));
  EXPECT_GT(result.leader_core.pre_verified, 0u);
  EXPECT_EQ(result.leader_core.macs_verified, 0u);
}

TEST(SimCluster, MoreCoresMoreThroughputForCop) {
  SimConfig small = smoke_config(SimArch::kCop);
  SimConfig big = smoke_config(SimArch::kCop);
  small.cores = 1;
  big.cores = 4;
  big.clients = 160;
  SimResult a = run_simulation(small);
  SimResult b = run_simulation(big);
  EXPECT_GT(b.throughput_ops, a.throughput_ops * 1.5)
      << "COP must scale with cores";
}

}  // namespace
}  // namespace copbft::sim
