#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "support/core_harness.hpp"

namespace copbft::test {
namespace {

ProtocolConfig small_config() {
  ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.max_faulty = 1;
  cfg.checkpoint_interval = 10;
  cfg.window = 40;
  cfg.max_batch = 1;
  cfg.view_change_timeout_us = 0;  // disabled unless a test enables it
  return cfg;
}

Bytes payload(int i) { return to_bytes("op-" + std::to_string(i)); }

// ---- normal case -------------------------------------------------------

TEST(PbftCore, SingleRequestCommitsEverywhere) {
  PillarGroupHarness h({small_config()});
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();

  for (ReplicaId r = 0; r < 4; ++r) {
    ASSERT_EQ(h.delivered(r).size(), 1u) << "replica " << r;
    const auto& batch = h.delivered(r)[0];
    EXPECT_EQ(batch.seq, 1u);
    ASSERT_EQ(batch.requests.size(), 1u);
    EXPECT_EQ(batch.requests[0].client, 1001u);
    EXPECT_EQ(batch.requests[0].payload, payload(1));
  }
}

TEST(PbftCore, ManyRequestsSameOrderEverywhere) {
  PillarGroupHarness h({small_config()});
  for (int i = 1; i <= 30; ++i)
    h.client_request(1001 + static_cast<ClientId>(i % 3), i, payload(i));
  h.run_until_quiescent();

  auto reference = h.delivered_sorted(0);
  ASSERT_EQ(reference.size(), 30u);
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(reference[i].seq, i + 1) << "no gaps";
  for (ReplicaId r = 1; r < 4; ++r) {
    auto got = h.delivered_sorted(r);
    ASSERT_EQ(got.size(), reference.size()) << "replica " << r;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].seq, reference[i].seq);
      ASSERT_EQ(got[i].requests.size(), reference[i].requests.size());
      for (std::size_t j = 0; j < got[i].requests.size(); ++j)
        EXPECT_EQ(got[i].requests[j].key(), reference[i].requests[j].key());
    }
  }
}

TEST(PbftCore, BatchingPacksPendingRequests) {
  auto cfg = small_config();
  cfg.max_batch = 8;
  cfg.max_active_proposals = 1;  // makes batch formation deterministic
  PillarGroupHarness h({cfg});
  // Submit to the leader only, with no network steps in between: the first
  // request proposes immediately; the rest accumulate and batch.
  for (int i = 1; i <= 9; ++i)
    h.client_request(1001, i, payload(i), {0});
  h.run_until_quiescent();

  auto batches = h.delivered_sorted(0);
  ASSERT_GE(batches.size(), 2u);
  std::size_t total = 0;
  std::size_t max_batch = 0;
  for (const auto& b : batches) {
    total += b.requests.size();
    max_batch = std::max(max_batch, b.requests.size());
  }
  EXPECT_EQ(total, 9u);
  EXPECT_GT(max_batch, 1u) << "later requests were batched";
  EXPECT_LE(max_batch, 8u) << "max_batch respected";
}

TEST(PbftCore, UnbatchedUsesOneInstancePerRequest) {
  PillarGroupHarness h({small_config()});
  for (int i = 1; i <= 5; ++i) h.client_request(1001, i, payload(i), {0});
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered_sorted(0).size(), 5u);
  EXPECT_EQ(h.core(0).stats().proposals, 5u);
}

TEST(PbftCore, DuplicateRequestsDroppedBeforeOrdering) {
  PillarGroupHarness h({small_config()});
  h.client_request(1001, 1, payload(1));
  h.client_request(1001, 1, payload(1));  // duplicate
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered_sorted(0).size(), 1u);
  EXPECT_GT(h.core(0).stats().duplicates_dropped, 0u);
}

TEST(PbftCore, FollowerDropsConflictingSecondPrePrepare) {
  PillarGroupHarness h({small_config()});
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();

  // A (faulty) leader proposal for the same (view, seq) with a different
  // digest must be ignored without verification.
  auto& follower = h.core(1);
  auto before = follower.stats();
  PrePrepare evil;
  evil.view = 0;
  evil.seq = 1;
  evil.digest.bytes.fill(0xee);
  IncomingMessage im;
  im.msg = evil;
  follower.on_message(std::move(im), h.now());
  auto after = follower.stats();
  EXPECT_EQ(after.macs_verified, before.macs_verified);
  EXPECT_EQ(after.verifications_skipped, before.verifications_skipped + 1);
}

// ---- in-order verification efficiency (paper §3.2) ---------------------

TEST(PbftCore, RedundantVotesAreNotVerified) {
  PillarGroupHarness h({small_config()});
  for (int i = 1; i <= 20; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();

  for (ReplicaId r = 0; r < 4; ++r) {
    const auto& s = h.core(r).stats();
    // With N=4, f=1: each instance generates 3 prepares (2f=2 needed by a
    // follower that counts its own) and 4 commits (2f+1=3 needed incl own).
    // At least the surplus commit per instance must be skipped.
    EXPECT_GT(s.verifications_skipped, 0u) << "replica " << r;
    EXPECT_GT(s.macs_verified, 0u);
  }
}

// ---- checkpointing -----------------------------------------------------

TEST(PbftCore, CheckpointsBecomeStableAndGarbageCollect) {
  auto cfg = small_config();
  PillarGroupHarness h({cfg});
  for (int i = 1; i <= 35; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();

  for (ReplicaId r = 0; r < 4; ++r) {
    // 35 instances, interval 10 -> checkpoints at 10, 20, 30.
    EXPECT_EQ(h.stable_checkpoints(r),
              (std::vector<SeqNum>{10, 20, 30}))
        << "replica " << r;
    EXPECT_EQ(h.core(r).stable_seq(), 30u);
    // Instances <= 30 must be gone.
    EXPECT_LE(h.core(r).open_instances(), 5u);
  }
}

TEST(PbftCore, WindowBlocksRunahead) {
  auto cfg = small_config();
  cfg.checkpoint_interval = 10;
  cfg.window = 10;
  PillarGroupHarness h({cfg, SeqSlice{0, 1}, /*seed=*/1, /*shuffle=*/false,
                        0.0, nullptr, /*auto_checkpoint=*/false});
  // Without checkpoints the window [1, 10] caps proposals.
  for (int i = 1; i <= 25; ++i) h.client_request(1001, i, payload(i), {0});
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered_sorted(0).size(), 10u);
  EXPECT_EQ(h.core(0).pending_requests(), 15u);
}

TEST(PbftCore, SiblingStabilityNoticeSlidesWindow) {
  auto cfg = small_config();
  cfg.window = 10;
  PillarGroupHarness h({cfg, SeqSlice{0, 1}, 1, false, 0.0, nullptr,
                        /*auto_checkpoint=*/false});
  for (int i = 1; i <= 25; ++i) h.client_request(1001, i, payload(i), {0});
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered_sorted(0).size(), 10u);

  // Simulate a sibling pillar's stable checkpoint at 10 on every replica.
  crypto::Digest d;
  for (ReplicaId r = 0; r < 4; ++r)
    h.core(r).note_checkpoint_stable(10, d);
  h.tick_all();  // flush the proposals triggered by the slid window
  // The leader can now propose 11..20.
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered_sorted(0).size(), 20u);
}

TEST(PbftCore, OverWindowMessagesDeferUntilWindowSlides) {
  auto cfg = small_config();
  cfg.checkpoint_interval = 5;
  cfg.window = 10;
  PillarGroupHarness h({cfg, SeqSlice{0, 1}, 1, false, 0.0, nullptr,
                        /*auto_checkpoint=*/false});
  for (int i = 1; i <= 15; ++i) h.client_request(1001, i, payload(i), {0});
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered_sorted(0).size(), 10u);

  // Only the leader learns of the stable checkpoint at 5: its window
  // slides to (5, 15] and it proposes 11..15, one checkpoint interval
  // above the followers' windows. The followers must park those
  // proposals instead of dropping them (a drop would stall the
  // instances until the retransmission timeout).
  crypto::Digest d;
  h.core(0).note_checkpoint_stable(5, d);
  h.tick_all();
  h.run_until_quiescent();
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.delivered_sorted(r).size(), 10u) << "replica " << r;
    EXPECT_GE(h.core(r).stats().over_window_deferred, 5u) << "replica " << r;
  }

  // The followers catch up on the checkpoint: the parked proposals
  // replay on the window slide and commit without any retransmission.
  for (ReplicaId r = 1; r < 4; ++r) h.core(r).note_checkpoint_stable(5, d);
  h.tick_all();
  h.run_until_quiescent();
  for (ReplicaId r = 0; r < 4; ++r)
    EXPECT_EQ(h.delivered_sorted(r).size(), 15u) << "replica " << r;
}

// ---- gap filling (paper §4.2.1) -----------------------------------------

TEST(PbftCore, FillGapProposesNoops) {
  auto cfg = small_config();
  PillarGroupHarness h({cfg, SeqSlice{1, 3}});  // pillar 1 of 3: 1, 4, 7...
  // No client traffic at all; the execution stage demands seq up to 7.
  for (ReplicaId r = 0; r < 4; ++r) h.fill_gap(r, 7);
  h.run_until_quiescent();

  for (ReplicaId r = 0; r < 4; ++r) {
    auto batches = h.delivered_sorted(r);
    ASSERT_EQ(batches.size(), 3u) << "replica " << r;
    EXPECT_EQ(batches[0].seq, 1u);
    EXPECT_EQ(batches[1].seq, 4u);
    EXPECT_EQ(batches[2].seq, 7u);
    for (const auto& b : batches) EXPECT_TRUE(b.requests.empty());
  }
  EXPECT_EQ(h.core(0).stats().noop_proposals, 3u);
}

TEST(PbftCore, FillGapPrefersPendingRequests) {
  auto cfg = small_config();
  cfg.max_batch = 200;
  PillarGroupHarness h({cfg, SeqSlice{0, 2}});
  // One pending request at the leader; gap fill should order it, not a
  // no-op, then fill the remainder with no-ops.
  h.client_request(1001, 1, payload(1), {0});
  h.run_until_quiescent();
  for (ReplicaId r = 0; r < 4; ++r) h.fill_gap(r, 6);
  h.run_until_quiescent();

  auto batches = h.delivered_sorted(0);
  ASSERT_EQ(batches.size(), 3u);  // seq 2, 4, 6
  EXPECT_EQ(batches[0].requests.size(), 1u);
  EXPECT_TRUE(batches[1].requests.empty());
  EXPECT_TRUE(batches[2].requests.empty());
}

// ---- sequence slices (COP partitioning) ----------------------------------

TEST(PbftCore, SliceIgnoresForeignSequences) {
  auto cfg = small_config();
  PillarGroupHarness h({cfg, SeqSlice{0, 2}});
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();

  // First instance of slice {0,2} is seq 2 (seq 0 is genesis).
  auto batches = h.delivered_sorted(1);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].seq, 2u);

  // A pre-prepare for a foreign sequence number is skipped unverified.
  auto before = h.core(1).stats();
  PrePrepare foreign;
  foreign.view = 0;
  foreign.seq = 3;  // not in slice {0,2}
  IncomingMessage im;
  im.msg = foreign;
  h.core(1).on_message(std::move(im), h.now());
  EXPECT_EQ(h.core(1).stats().macs_verified, before.macs_verified);
}

TEST(PbftCore, TwoSlicesFormGaplessTotalOrder) {
  // Two pillar groups (NP=2) running side by side; their merged outcome
  // must enumerate 2,3,4,... densely when both have traffic. (Seq 1 is
  // slice {1,2}'s first member; slice {0,2} starts at 2.)
  auto cfg = small_config();
  cfg.max_batch = 1;
  PillarGroupHarness g0({cfg, SeqSlice{0, 2}, 1});
  PillarGroupHarness g1({cfg, SeqSlice{1, 2}, 2});
  for (int i = 1; i <= 10; ++i) {
    g0.client_request(1000 + static_cast<ClientId>(2 * i), 1, payload(i));
    g1.client_request(1001 + static_cast<ClientId>(2 * i), 1, payload(i));
  }
  g0.run_until_quiescent();
  g1.run_until_quiescent();

  std::vector<SeqNum> merged;
  for (const auto& b : g0.delivered_sorted(0)) merged.push_back(b.seq);
  for (const auto& b : g1.delivered_sorted(0)) merged.push_back(b.seq);
  std::sort(merged.begin(), merged.end());
  ASSERT_EQ(merged.size(), 20u);
  for (std::size_t i = 0; i < merged.size(); ++i)
    EXPECT_EQ(merged[i], i + 1) << "dense interleaving across slices";
}

// ---- single-instance mode (SMaRt baseline) ------------------------------

TEST(PbftCore, SingleInstanceModeSerializesProposals) {
  auto cfg = small_config();
  cfg.max_active_proposals = 1;
  cfg.max_batch = 1;
  PillarGroupHarness h({cfg});
  for (int i = 1; i <= 6; ++i) h.client_request(1001, i, payload(i), {0});
  // Before any network step, only one proposal may be outstanding.
  EXPECT_EQ(h.core(0).stats().proposals, 1u);
  h.run_until_quiescent();
  EXPECT_EQ(h.core(0).stats().proposals, 6u);
  EXPECT_EQ(h.delivered_sorted(0).size(), 6u);
}

TEST(PbftCore, SingleInstanceWithBatchingScales) {
  auto cfg = small_config();
  cfg.max_active_proposals = 1;
  cfg.max_batch = 100;
  PillarGroupHarness h({cfg});
  for (int i = 1; i <= 50; ++i) h.client_request(1001, i, payload(i), {0});
  h.run_until_quiescent();
  // One instance for the first request, one batch for the remaining 49.
  EXPECT_EQ(h.core(0).stats().proposals, 2u);
  EXPECT_EQ(h.core(0).stats().requests_delivered, 50u);
}

// ---- outstanding-work counts -----------------------------------------------
//
// The core counts the instances that hold a pre-prepare and are not
// delivered, and the subset it proposed. max_active_proposals reads the
// second and the view-change timer the first, so a count left stale by a
// delivery, a view change or a garbage collection shows as a leader that
// stops proposing or a follower that misjudges whether it is idle.

TEST(PbftCore, CappedLeadersKeepProposingAcrossAViewChange) {
  auto cfg = small_config();
  cfg.max_active_proposals = 1;
  cfg.view_change_timeout_us = 1'000'000;
  cfg.retransmit_interval_us = 0;
  auto options = PillarGroupHarness::Options{cfg};
  int phase = 0;
  options.drop = [&phase](ReplicaId from, ReplicaId to, const Message& m) {
    switch (phase) {
      case 0:  // seq 1 prepares everywhere but commits only at the leader
        return to != 0 && std::holds_alternative<Commit>(m);
      case 1:  // seq 2 is pre-prepared and never prepared
        return std::holds_alternative<Prepare>(m);
      default:  // the view-0 leader is gone
        return from == 0 || to == 0;
    }
  };
  PillarGroupHarness h(std::move(options));

  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered(0).size(), 1u);
  phase = 1;
  h.client_request(1001, 2, payload(2));
  h.run_until_quiescent();
  EXPECT_EQ(h.core(0).stats().proposals, 2u)
      << "the leader did not propose after its delivery";

  // The new view re-proposes prepared seq 1 under replica 1 and erases
  // seq 2; replica 1 proposes again once its re-proposal is delivered.
  phase = 2;
  h.advance_time(1'500'000);
  h.tick_all();
  h.run_until_quiescent();
  for (ReplicaId r = 1; r < 4; ++r) {
    ASSERT_EQ(h.core(r).view(), 1u) << "replica " << r;
    ASSERT_EQ(h.delivered(r).size(), 1u) << "replica " << r;
  }
  h.client_request(1001, 2, payload(2), {1, 2, 3});  // client retransmits
  h.run_until_quiescent();
  h.client_request(1001, 3, payload(3), {1, 2, 3});
  h.run_until_quiescent();
  for (ReplicaId r = 1; r < 4; ++r) {
    auto batches = h.delivered_sorted(r);
    ASSERT_EQ(batches.size(), 3u) << "replica " << r;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      EXPECT_EQ(batches[i].seq, i + 1);
      EXPECT_EQ(batches[i].view, 1u);
      EXPECT_EQ(batches[i].requests.at(0).key(), request_key(1001, i + 1));
    }
  }

  // Nothing is outstanding: idle followers start no further view change.
  h.advance_time(1'500'000);
  h.tick_all();
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.core(r).stats().view_changes_started, 1u) << "replica " << r;
    EXPECT_FALSE(h.core(r).in_view_change()) << "replica " << r;
  }
}

TEST(PbftCore, CappedLeaderKeepsProposingWhenACheckpointCollectsItsProposal) {
  // The leader never sees the commits for its proposal at seq 10, but the
  // followers deliver it and their checkpoint votes make seq 10 stable at
  // the leader too: collecting the undelivered proposal frees its slot.
  auto cfg = small_config();
  cfg.max_active_proposals = 1;
  auto options = PillarGroupHarness::Options{cfg};
  options.drop = [](ReplicaId, ReplicaId to, const Message& m) {
    const auto* commit = std::get_if<Commit>(&m);
    return to == 0 && commit != nullptr && commit->seq == 10;
  };
  PillarGroupHarness h(std::move(options));
  for (int i = 1; i <= 10; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered(0).size(), 9u) << "the leader delivered seq 10";
  ASSERT_EQ(h.core(0).stable_seq(), 10u);

  h.client_request(1001, 11, payload(11));
  h.run_until_quiescent();
  for (ReplicaId r = 0; r < 4; ++r) {
    auto batches = h.delivered_sorted(r);
    ASSERT_FALSE(batches.empty()) << "replica " << r;
    EXPECT_EQ(batches.back().seq, 11u) << "replica " << r;
  }
}

TEST(PbftCore, FollowerHoldingAnUndeliveredProposalStartsAViewChange) {
  auto cfg = small_config();
  cfg.view_change_timeout_us = 1'000'000;
  cfg.retransmit_interval_us = 0;
  auto options = PillarGroupHarness::Options{cfg};
  options.drop = [](ReplicaId, ReplicaId, const Message& m) {
    return std::holds_alternative<Prepare>(m);
  };
  PillarGroupHarness h(std::move(options));
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();
  for (ReplicaId r = 1; r < 4; ++r)
    ASSERT_EQ(h.core(r).pending_requests(), 0u)
        << "only the accepted proposal is outstanding at replica " << r;

  h.advance_time(cfg.view_change_timeout_us - 1);
  h.tick_all();
  for (ReplicaId r = 1; r < 4; ++r)
    EXPECT_EQ(h.core(r).stats().view_changes_started, 0u) << "replica " << r;
  h.advance_time(1);
  h.tick_all();
  for (ReplicaId r = 1; r < 4; ++r)
    EXPECT_EQ(h.core(r).stats().view_changes_started, 1u) << "replica " << r;
}

TEST(PbftCore, IdleFollowerStartsNoViewChange) {
  auto cfg = small_config();
  cfg.view_change_timeout_us = 1'000'000;
  PillarGroupHarness h({cfg});
  h.client_request(1001, 1, payload(1));
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered(3).size(), 1u);

  h.advance_time(10 * cfg.view_change_timeout_us);
  h.tick_all();
  for (ReplicaId r = 0; r < 4; ++r)
    EXPECT_EQ(h.core(r).stats().view_changes_started, 0u) << "replica " << r;
}

// ---- rotation (paper §4.3.2) ---------------------------------------------

TEST(PbftCore, RotatingLeadersAllPropose) {
  auto cfg = small_config();
  cfg.leader_scheme = LeaderScheme::kRotating;
  cfg.num_pillars = 1;  // trivial slice; rotation per instance
  PillarGroupHarness h({cfg});
  for (int i = 1; i <= 12; ++i) {
    h.client_request(1001, i, payload(i));
    h.run_until_quiescent();
  }
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_GT(h.core(r).stats().proposals, 0u) << "replica " << r;
    EXPECT_EQ(h.delivered_sorted(r).size(), 12u);
  }
}

TEST(PbftCore, RotationTotalOrderConsistent) {
  auto cfg = small_config();
  cfg.leader_scheme = LeaderScheme::kRotating;
  cfg.max_batch = 200;
  PillarGroupHarness h({cfg, SeqSlice{0, 1}, 3, /*shuffle=*/true});
  for (int i = 1; i <= 40; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();

  auto reference = h.delivered_sorted(0);
  for (ReplicaId r = 1; r < 4; ++r) {
    auto got = h.delivered_sorted(r);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].seq, reference[i].seq);
      ASSERT_EQ(got[i].requests.size(), reference[i].requests.size());
      for (std::size_t j = 0; j < got[i].requests.size(); ++j)
        EXPECT_EQ(got[i].requests[j].key(), reference[i].requests[j].key());
    }
  }
}

// ---- stats ------------------------------------------------------------------

TEST(CoreStatsSum, AddingToItselfDoublesEveryField) {
  // Replicas and the simulator sum per-pillar stats; a field left out of
  // operator+= reads 0 in every summed view.
  using Fields =
      std::array<std::uint64_t, sizeof(CoreStats) / sizeof(std::uint64_t)>;
  Fields fields;
  for (std::size_t i = 0; i < fields.size(); ++i) fields[i] = 100 + i;
  CoreStats stats = std::bit_cast<CoreStats>(fields);
  stats += stats;
  fields = std::bit_cast<Fields>(stats);
  for (std::size_t i = 0; i < fields.size(); ++i)
    EXPECT_EQ(fields[i], 2 * (100 + i)) << "field " << i;
}

}  // namespace
}  // namespace copbft::test
