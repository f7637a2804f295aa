// Parameterized sweeps over protocol configuration space: for every
// combination, the protocol must deliver every request exactly once per
// replica, gap-free and in agreement.
#include <gtest/gtest.h>

#include <map>

#include "support/core_harness.hpp"

namespace copbft::test {
namespace {

struct SweepParam {
  std::uint32_t max_batch;
  std::uint32_t max_active;
  SeqNum checkpoint_interval;
  LeaderScheme scheme;
  bool shuffle;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  return "batch" + std::to_string(p.max_batch) + "_active" +
         std::to_string(p.max_active) + "_ckpt" +
         std::to_string(p.checkpoint_interval) +
         (p.scheme == LeaderScheme::kRotating ? "_rot" : "_fix") +
         (p.shuffle ? "_shuf" : "_fifo");
}

class ProtocolSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, AllRequestsDeliveredOnceGapFree) {
  const SweepParam& param = GetParam();
  ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.max_faulty = 1;
  cfg.checkpoint_interval = param.checkpoint_interval;
  cfg.window = 4 * param.checkpoint_interval;
  cfg.max_batch = param.max_batch;
  cfg.max_active_proposals = param.max_active;
  cfg.leader_scheme = param.scheme;
  cfg.view_change_timeout_us = 0;
  // An adversarially scheduled replica can drop proposals that are
  // momentarily outside its watermark window; retransmission heals this
  // (it is what the paper-grade runtime runs with, too).
  cfg.retransmit_interval_us = 50'000;

  PillarGroupHarness::Options options{cfg};
  options.shuffle = param.shuffle;
  options.seed = 99;
  PillarGroupHarness h(std::move(options));

  constexpr int kRequests = 60;
  Rng rng(7);
  int sent = 0;
  while (sent < kRequests) {
    int burst = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < burst && sent < kRequests; ++i) {
      ++sent;
      h.client_request(1001 + static_cast<ClientId>(sent % 4), sent,
                       to_bytes("s" + std::to_string(sent)));
    }
    std::size_t steps = rng.below(25);
    for (std::size_t i = 0; i < steps && h.step(); ++i) {
    }
  }
  h.run_until_quiescent();
  // Healing rounds: let retransmission timers fire until no replica makes
  // further progress.
  for (int round = 0; round < 20; ++round) {
    std::size_t before = 0;
    for (ReplicaId r = 0; r < 4; ++r) before += h.delivered(r).size();
    h.advance_time(60'000);
    h.tick_all();
    h.run_until_quiescent();
    std::size_t after = 0;
    for (ReplicaId r = 0; r < 4; ++r) after += h.delivered(r).size();
    if (after == before) break;
  }

  // Per-replica: strictly increasing sequence numbers (no double
  // delivery), batch bound respected, no request ordered twice. A replica
  // starved by the adversarial scheduler may skip instances that fell
  // behind a stable checkpoint (log truncation; state transfer would heal
  // its service state), so per-replica gaps are legal — but the *union*
  // must be dense and complete, and overlapping deliveries must agree.
  std::map<SeqNum, std::vector<std::uint64_t>> by_seq;
  for (ReplicaId r = 0; r < 4; ++r) {
    auto batches = h.delivered_sorted(r);
    SeqNum previous = 0;
    std::map<std::uint64_t, int> seen;
    for (const auto& b : batches) {
      EXPECT_GT(b.seq, previous) << "replica " << r;
      previous = b.seq;
      EXPECT_LE(b.requests.size(), param.max_batch);
      std::vector<std::uint64_t> keys;
      for (const auto& req : b.requests) {
        ++seen[req.key()];
        keys.push_back(req.key());
      }
      auto [it, inserted] = by_seq.try_emplace(b.seq, keys);
      if (!inserted) {
        EXPECT_EQ(it->second, keys) << "disagreement at seq " << b.seq;
      }
    }
    for (const auto& [key, count] : seen)
      EXPECT_EQ(count, 1) << "request ordered twice at replica " << r;
  }

  // Union across replicas: dense 1..N and every request exactly once.
  SeqNum expect = 1;
  std::map<std::uint64_t, int> union_seen;
  for (const auto& [seq, keys] : by_seq) {
    EXPECT_EQ(seq, expect++) << "hole in the union of delivered instances";
    for (std::uint64_t key : keys) ++union_seen[key];
  }
  EXPECT_EQ(union_seen.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [key, count] : union_seen) EXPECT_EQ(count, 1);

  // Liveness: at least a quorum of replicas stayed fully current.
  int complete = 0;
  for (ReplicaId r = 0; r < 4; ++r)
    if (h.delivered_sorted(r).size() == by_seq.size()) ++complete;
  EXPECT_GE(complete, 3) << "too many replicas lagged";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProtocolSweep,
    ::testing::Values(
        SweepParam{1, 0, 10, LeaderScheme::kFixed, false},
        SweepParam{1, 0, 10, LeaderScheme::kFixed, true},
        SweepParam{1, 1, 10, LeaderScheme::kFixed, true},
        SweepParam{8, 0, 10, LeaderScheme::kFixed, true},
        SweepParam{8, 2, 20, LeaderScheme::kFixed, true},
        SweepParam{64, 1, 10, LeaderScheme::kFixed, true},
        SweepParam{1, 0, 10, LeaderScheme::kRotating, false},
        SweepParam{1, 0, 10, LeaderScheme::kRotating, true},
        SweepParam{8, 2, 10, LeaderScheme::kRotating, true},
        SweepParam{64, 4, 20, LeaderScheme::kRotating, true},
        SweepParam{8, 2, 100, LeaderScheme::kFixed, true},
        SweepParam{8, 2, 100, LeaderScheme::kRotating, true}),
    param_name);

// ---- pillar-count sweep over full multi-slice groups ---------------------

class MultiSliceSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MultiSliceSweep, InterleavedSlicesStayDenseWithGapFilling) {
  // NP independent pillar groups; traffic only on pillar 0 — the others
  // must be filled with no-ops on demand, keeping the union dense.
  const std::uint32_t np = GetParam();
  ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.max_faulty = 1;
  cfg.checkpoint_interval = 12;
  cfg.window = 48;
  cfg.max_batch = 4;
  cfg.view_change_timeout_us = 0;

  std::vector<std::unique_ptr<PillarGroupHarness>> groups;
  for (std::uint32_t p = 0; p < np; ++p) {
    PillarGroupHarness::Options options{cfg};
    options.slice = SeqSlice{p, np};
    options.seed = p + 1;
    options.auto_checkpoint = false;
    groups.push_back(std::make_unique<PillarGroupHarness>(std::move(options)));
  }

  // 12 requests into pillar 0 only.
  for (int i = 1; i <= 12; ++i)
    groups[0]->client_request(1001, i, to_bytes("x"));
  groups[0]->run_until_quiescent();
  SeqNum top = groups[0]->delivered_sorted(0).back().seq;

  // The execution stage would demand every seq up to `top`.
  for (std::uint32_t p = 1; p < np; ++p) {
    for (ReplicaId r = 0; r < 4; ++r) groups[p]->fill_gap(r, top);
    groups[p]->run_until_quiescent();
  }

  // Union of all slices is dense 1..top.
  std::vector<SeqNum> seqs;
  for (auto& g : groups)
    for (const auto& b : g->delivered_sorted(0)) seqs.push_back(b.seq);
  std::sort(seqs.begin(), seqs.end());
  ASSERT_GE(seqs.size(), static_cast<std::size_t>(top));
  for (SeqNum expect = 1; expect <= top; ++expect)
    EXPECT_EQ(seqs[expect - 1], expect);
}

INSTANTIATE_TEST_SUITE_P(PillarCounts, MultiSliceSweep,
                         ::testing::Values(2u, 3u, 5u, 8u));

}  // namespace
}  // namespace copbft::test
