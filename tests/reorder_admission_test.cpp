// Property test for pillar-side commit admission (pre-execution offload,
// paper §4.3.1): any interleaving of the pillars' per-slice admission
// streams must be observationally identical to sequential admission —
// same execution order, same reply stream, same checkpoint triggers (and
// state digests), same gap-fill requests, same counters.
//
// The interleavings are seeded through common/rng.hpp so every failure
// reproduces from the printed seed. Gap-timeout behaviour is driven by a
// virtual clock handed to poll_pillar, so the gap-fill comparison is
// exact, not timing-dependent.
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "app/null_service.hpp"
#include "common/rng.hpp"
#include "core/execution_stage.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

constexpr std::uint32_t kPillars = 3;
constexpr SeqNum kSeqs = 120;  // 12 checkpoint intervals, < ring capacity

/// Everything observable about one run, in a directly comparable shape.
struct RunRecord {
  /// (client, request id, result) per reply frame, in send order — fresh
  /// executions and cached retransmissions alike.
  std::vector<std::tuple<ClientId, RequestId, Bytes>> replies;
  /// Commands each pillar picked up from its polls, in pickup order:
  /// (pillar, kind, seq, frontier) with kind 0 = StartCheckpoint
  /// (frontier field reused for the digest's first word) and 1 = FillGap.
  std::vector<std::tuple<std::uint32_t, int, SeqNum, std::uint64_t>> commands;
  ExecutionStats stats;

  bool operator==(const RunRecord& other) const {
    return replies == other.replies && commands == other.commands &&
           stats.batches_executed == other.stats.batches_executed &&
           stats.requests_executed == other.stats.requests_executed &&
           stats.noops_executed == other.stats.noops_executed &&
           stats.duplicates_suppressed == other.stats.duplicates_suppressed &&
           stats.replies_sent == other.stats.replies_sent &&
           stats.checkpoints_triggered == other.stats.checkpoints_triggered &&
           stats.gap_fills_requested == other.stats.gap_fills_requested &&
           stats.reorder_slot_drops == other.stats.reorder_slot_drops &&
           stats.last_executed_seq == other.stats.last_executed_seq;
  }
};

/// Batch contents depend only on the content seed and the sequence
/// number — identical across interleavings by construction. Mixes noops,
/// multi-request batches, and client/request-id reuse so duplicate
/// suppression and the reply cache are part of the compared behaviour.
CommittedBatch make_batch(std::uint64_t content_seed, SeqNum seq) {
  SplitMix64 sm(content_seed ^ (seq * 0x9e3779b97f4a7c15ULL));
  auto requests = std::make_shared<std::vector<Request>>();
  if (sm.next() % 7 != 0) {  // 1 in 7 batches is a no-op fill
    const std::size_t count = 1 + sm.next() % 3;
    for (std::size_t i = 0; i < count; ++i) {
      Request req;
      req.client = static_cast<ClientId>(1001 + sm.next() % 4);
      req.id = static_cast<RequestId>(1 + sm.next() % 64);
      req.payload = to_bytes("x");
      requests->push_back(std::move(req));
    }
  }
  const SeqNum window = 40;
  const SeqNum basis = seq > window ? seq - window : 0;
  return CommittedBatch{seq, 0, std::move(requests), seq % kPillars, basis};
}

class AdmissionRun {
 public:
  explicit AdmissionRun(std::uint64_t content_seed)
      : content_seed_(content_seed) {
    config_.num_pillars = kPillars;
    config_.protocol.num_pillars = kPillars;
    config_.protocol.checkpoint_interval = 10;
    config_.protocol.window = 40;
    config_.gap_timeout_us = 10'000;
    crypto_ = crypto::make_real_crypto(3);
    service_ = std::make_unique<app::NullService>(4);
    stage_ = std::make_unique<ExecutionStage>(/*self=*/1, config_, *service_,
                                              *crypto_, transport_);
    stage_->start();
  }

  ~AdmissionRun() { stage_->stop(); }

  void admit(SeqNum seq) { stage_->admit(make_batch(content_seed_, seq)); }

  /// One poll round at virtual time `now_us`, all pillars in index order,
  /// appending what each picked up to the record.
  void poll_all(std::uint64_t now_us) {
    std::vector<PillarCommand> out;
    for (std::uint32_t p = 0; p < kPillars; ++p) {
      out.clear();
      stage_->poll_pillar(p, now_us, out);
      for (const PillarCommand& cmd : out) {
        if (const auto* cp = std::get_if<StartCheckpoint>(&cmd)) {
          std::uint64_t word = 0;
          for (std::size_t i = 0; i < 8; ++i)
            word = word << 8 | static_cast<std::uint64_t>(cp->digest.bytes[i]);
          record_.commands.emplace_back(p, 0, cp->seq, word);
        } else if (const auto* gap = std::get_if<FillGap>(&cmd)) {
          record_.commands.emplace_back(p, 1, gap->seq, gap->frontier);
        }
      }
    }
  }

  /// Spins (real time) until the execution frontier reaches `seq`.
  bool wait_frontier(SeqNum seq, int ms = 5000) {
    for (int spin = 0; spin < ms; ++spin) {
      if (stage_->next_seq() >= seq) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return stage_->next_seq() >= seq;
  }

  RunRecord finish() {
    for (const FakeTransport::Sent& sent : transport_.take_sent()) {
      auto decoded = decode_message(sent.frame);
      const Reply* reply =
          decoded ? std::get_if<Reply>(&decoded->msg) : nullptr;
      if (!reply) {
        ADD_FAILURE() << "stage sent a frame that is not a Reply";
        continue;
      }
      record_.replies.emplace_back(reply->client, reply->id, reply->result);
    }
    record_.stats = stage_->stats();
    return std::move(record_);
  }

 private:
  std::uint64_t content_seed_;
  ReplicaRuntimeConfig config_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  std::unique_ptr<app::NullService> service_;
  FakeTransport transport_;
  std::unique_ptr<ExecutionStage> stage_;
  RunRecord record_;
};

/// Runs one full scenario: admit every batch except a withheld frontier
/// seq, let the pillars detect the stall and request their own fills,
/// close the gap, drain, and collect the observable record.
///
/// `order_seed` = 0 submits in sequence order (the baseline, equivalent
/// to the old exec-side sequential admission); otherwise each pillar's
/// slice stays in slice order but the pillars interleave randomly.
RunRecord run_scenario(std::uint64_t content_seed, std::uint64_t order_seed,
                       SeqNum withheld) {
  std::vector<std::deque<SeqNum>> slices(kPillars);
  for (SeqNum s = 1; s <= kSeqs; ++s)
    if (s != withheld) slices[s % kPillars].push_back(s);

  AdmissionRun run(content_seed);
  if (order_seed == 0) {
    for (SeqNum s = 1; s <= kSeqs; ++s)
      if (s != withheld) run.admit(s);
  } else {
    Rng rng(order_seed);
    std::vector<std::uint32_t> nonempty;
    for (;;) {
      nonempty.clear();
      for (std::uint32_t p = 0; p < kPillars; ++p)
        if (!slices[p].empty()) nonempty.push_back(p);
      if (nonempty.empty()) break;
      auto& slice = slices[nonempty[rng.below(nonempty.size())]];
      run.admit(slice.front());
      slice.pop_front();
    }
  }

  // Execution drains up to the withheld seq and stalls there.
  EXPECT_TRUE(run.wait_frontier(withheld));
  // Virtual-clock polls: observe the new frontier, arm the stall timer,
  // then cross gap_timeout_us — every pillar must request a fill for its
  // own slice, targeting the highest watermark any pillar admitted.
  run.poll_all(1'000);
  run.poll_all(2'000);
  run.poll_all(2'000 + 10'000);

  run.admit(withheld);
  EXPECT_TRUE(run.wait_frontier(kSeqs + 1));
  // Final poll drains the checkpoint signals mailed during the full
  // drain; the frontier moved, so no further fills fire.
  run.poll_all(20'000);
  return run.finish();
}

TEST(ReorderAdmission, RandomInterleavingsMatchSequentialAdmission) {
  for (std::uint64_t content_seed : {11ULL, 22ULL, 33ULL}) {
    SplitMix64 sm(content_seed);
    const SeqNum withheld = static_cast<SeqNum>(2 + sm.next() % (kSeqs - 2));
    const RunRecord baseline = run_scenario(content_seed, 0, withheld);

    // The baseline itself must be internally coherent before it is worth
    // comparing against: everything executed, every pillar asked to fill
    // its own slice exactly once, checkpoints on every interval boundary.
    EXPECT_EQ(baseline.stats.last_executed_seq, kSeqs);
    EXPECT_EQ(baseline.stats.batches_executed, kSeqs);
    EXPECT_EQ(baseline.stats.reorder_slot_drops, 0u);
    EXPECT_EQ(baseline.stats.gap_fills_requested, kPillars);
    EXPECT_EQ(baseline.stats.checkpoints_triggered, kSeqs / 10);
    std::uint64_t fills = 0;
    for (const auto& [pillar, kind, seq, frontier] : baseline.commands) {
      if (kind != 1) continue;
      ++fills;
      EXPECT_EQ(seq, kSeqs) << "fill targets the highest admitted seq";
      EXPECT_EQ(frontier, withheld) << "fill reports the stalled frontier";
    }
    EXPECT_EQ(fills, kPillars) << "one self-addressed fill per pillar";

    for (std::uint64_t variant = 1; variant <= 4; ++variant) {
      const std::uint64_t order_seed = content_seed * 1000 + variant;
      const RunRecord shuffled =
          run_scenario(content_seed, order_seed, withheld);
      EXPECT_TRUE(shuffled == baseline)
          << "interleaving diverged from sequential admission "
          << "(content_seed=" << content_seed
          << ", order_seed=" << order_seed << ", withheld=" << withheld
          << "): replies " << shuffled.replies.size() << " vs "
          << baseline.replies.size() << ", commands "
          << shuffled.commands.size() << " vs " << baseline.commands.size()
          << ", executed " << shuffled.stats.last_executed_seq << " vs "
          << baseline.stats.last_executed_seq;
    }
  }
}

}  // namespace
}  // namespace copbft::test
