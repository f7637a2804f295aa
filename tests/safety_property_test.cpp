// Property-based safety tests: under arbitrary message reordering,
// duplication and (bounded) loss, non-faulty replicas never disagree on
// the batch committed at any sequence number, and committed prefixes stay
// gap-free after gap filling.
#include <gtest/gtest.h>

#include <map>

#include "support/core_harness.hpp"

namespace copbft::test {
namespace {

ProtocolConfig prop_config() {
  ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.max_faulty = 1;
  cfg.checkpoint_interval = 20;
  cfg.window = 80;
  cfg.max_batch = 8;
  cfg.max_active_proposals = 4;
  cfg.view_change_timeout_us = 0;
  return cfg;
}

/// Every (seq -> batch digest of request keys) pair must agree across
/// replicas; this is PBFT's agreement property.
void expect_agreement(const PillarGroupHarness& h) {
  std::map<SeqNum, std::vector<std::uint64_t>> committed;
  for (ReplicaId r = 0; r < h.num_replicas(); ++r) {
    for (const auto& batch : h.delivered(r)) {
      std::vector<std::uint64_t> keys;
      keys.reserve(batch.requests.size());
      for (const auto& req : batch.requests) keys.push_back(req.key());
      auto [it, inserted] = committed.try_emplace(batch.seq, keys);
      if (!inserted) {
        EXPECT_EQ(it->second, keys)
            << "replicas disagree at seq " << batch.seq;
      }
    }
  }
}

class SafetyUnderReordering : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SafetyUnderReordering, RandomInterleavings) {
  auto options = PillarGroupHarness::Options{prop_config()};
  options.seed = GetParam();
  options.shuffle = true;
  options.duplicate_p = 0.15;
  PillarGroupHarness h(std::move(options));

  Rng rng(GetParam() * 7919 + 13);
  int next_id = 1;
  for (int round = 0; round < 20; ++round) {
    int burst = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < burst; ++i) {
      ClientId client = 1001 + static_cast<ClientId>(rng.below(5));
      h.client_request(client, next_id++, to_bytes("p"));
    }
    // Interleave partial delivery with submission.
    std::size_t deliveries = rng.below(40);
    for (std::size_t i = 0; i < deliveries && h.step(); ++i) {
    }
  }
  h.run_until_quiescent();

  expect_agreement(h);
  // Liveness under no loss: everything committed everywhere.
  for (ReplicaId r = 0; r < 4; ++r) {
    std::size_t total = 0;
    for (const auto& b : h.delivered(r)) total += b.requests.size();
    EXPECT_EQ(total, static_cast<std::size_t>(next_id - 1))
        << "replica " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafetyUnderReordering,
                         ::testing::Range<std::uint64_t>(1, 13));

class SafetyUnderLoss : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SafetyUnderLoss, DropsNeverCauseDisagreement) {
  auto options = PillarGroupHarness::Options{prop_config()};
  options.seed = GetParam();
  options.shuffle = true;
  // Random 10% message loss (votes and proposals alike). Liveness may
  // suffer (no retransmission in the harness); agreement must not.
  auto rng = std::make_shared<Rng>(GetParam() * 104729 + 7);
  options.drop = [rng](ReplicaId, ReplicaId, const Message&) {
    return rng->chance(0.10);
  };
  PillarGroupHarness h(std::move(options));

  Rng traffic(GetParam());
  int next_id = 1;
  for (int round = 0; round < 15; ++round) {
    for (std::uint64_t i = 0; i < 1 + traffic.below(4); ++i)
      h.client_request(1001 + static_cast<ClientId>(traffic.below(3)),
                       next_id++, to_bytes("q"));
    std::size_t deliveries = traffic.below(30);
    for (std::size_t i = 0; i < deliveries && h.step(); ++i) {
    }
  }
  h.run_until_quiescent();
  expect_agreement(h);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafetyUnderLoss,
                         ::testing::Range<std::uint64_t>(1, 13));

class SafetyAcrossSlices : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SafetyAcrossSlices, EverySliceAgreesIndependently) {
  // One harness per pillar group, all with the same NP = GetParam();
  // verifies the COP partitioning argument: slices are independent
  // consensus sequences, each individually safe, and their union is the
  // full sequence space.
  const std::uint32_t np = GetParam();
  std::vector<std::unique_ptr<PillarGroupHarness>> groups;
  for (std::uint32_t p = 0; p < np; ++p) {
    auto options = PillarGroupHarness::Options{prop_config()};
    options.slice = SeqSlice{p, np};
    options.seed = 1000 + p;
    options.shuffle = true;
    options.duplicate_p = 0.1;
    groups.push_back(std::make_unique<PillarGroupHarness>(std::move(options)));
  }
  int next_id = 1;
  for (std::uint32_t p = 0; p < np; ++p) {
    for (int i = 0; i < 12; ++i)
      groups[p]->client_request(1001 + p, next_id++, to_bytes("s"));
    groups[p]->run_until_quiescent();
    expect_agreement(*groups[p]);
  }

  // Union of slices is gap-free up to the smallest per-slice frontier.
  std::vector<SeqNum> seqs;
  for (auto& g : groups)
    for (const auto& b : g->delivered_sorted(0)) seqs.push_back(b.seq);
  std::sort(seqs.begin(), seqs.end());
  SeqNum horizon = 0;
  for (std::uint32_t p = 0; p < np; ++p) {
    SeqNum top = groups[p]->delivered_sorted(0).back().seq;
    horizon = (p == 0) ? top : std::min(horizon, top);
  }
  SeqNum expected = 1;
  for (SeqNum seq : seqs) {
    if (seq > horizon) break;
    EXPECT_EQ(seq, expected++);
  }
}

INSTANTIATE_TEST_SUITE_P(PillarCounts, SafetyAcrossSlices,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u));

class CheckpointGcSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(CheckpointGcSweep, MemoryStaysBoundedOverLongRuns) {
  auto [seed, shuffle] = GetParam();
  auto cfg = prop_config();
  cfg.checkpoint_interval = 10;
  cfg.window = 30;
  auto options = PillarGroupHarness::Options{cfg};
  options.seed = seed;
  options.shuffle = shuffle;
  PillarGroupHarness h(std::move(options));

  int next_id = 1;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 10; ++i)
      h.client_request(1001, next_id++, to_bytes("gc"));
    h.run_until_quiescent();
    for (ReplicaId r = 0; r < 4; ++r) {
      EXPECT_LE(h.core(r).open_instances(), cfg.window)
          << "instance log leaked";
    }
  }
  expect_agreement(h);
  // At quiescence the stable checkpoint must track the execution frontier
  // within one interval — otherwise GC lags and logs grow.
  for (ReplicaId r = 0; r < 4; ++r) {
    SeqNum frontier = h.delivered_sorted(r).back().seq;
    EXPECT_GE(h.core(r).stable_seq() + cfg.checkpoint_interval, frontier)
        << "replica " << r;
    EXPECT_GT(h.core(r).stable_seq(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, CheckpointGcSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Bool()));

}  // namespace
}  // namespace copbft::test
