#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <set>
#include <thread>

#include "app/null_service.hpp"
#include "common/invariant.hpp"
#include "core/checkpoint_artifact.hpp"
#include "core/execution_stage.hpp"
#include "core/outbound.hpp"
#include "protocol/wire.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

/// Records the PillarCommands the stage sends through its command hook.
struct CommandLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::pair<std::uint32_t, PillarCommand>> commands;

  void record(std::uint32_t pillar, PillarCommand cmd) {
    std::lock_guard lock(mutex);
    commands.emplace_back(pillar, std::move(cmd));
    cv.notify_all();
  }

  template <typename Pred>
  bool wait_for(Pred pred, int ms = 2000) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, std::chrono::milliseconds(ms),
                       [&] { return pred(commands); });
  }
};

/// Returns a fixed raw result and marks it in post_process, so a reply
/// frame shows whether its result was post-processed.
class MarkingService final : public app::Service {
 public:
  Bytes execute(const Request&) override { return to_bytes("raw"); }
  crypto::Digest state_digest() const override { return {}; }
  Bytes post_process(const Request&, Bytes result) override {
    result.push_back(Byte{'!'});
    return result;
  }
};

class ExecutionStageTest : public ::testing::Test {
 protected:
  void start(ReplyMode mode = ReplyMode::kAll, std::uint32_t pillars = 2) {
    config_.num_pillars = pillars;
    config_.protocol.num_pillars = pillars;
    config_.protocol.checkpoint_interval = 10;
    config_.protocol.window = 40;
    config_.reply_mode = mode;
    config_.gap_timeout_us = 10'000;
    crypto_ = crypto::make_real_crypto(3);
    if (!service_) service_ = std::make_unique<app::NullService>(4);
    stage_ = std::make_unique<ExecutionStage>(/*self=*/1, config_, *service_,
                                              *crypto_, transport_);
    if (snapshot_fn_) stage_->set_snapshot_fn(snapshot_fn_);
    stage_->set_command_fn([this](std::uint32_t pillar, PillarCommand cmd) {
      log_.record(pillar, std::move(cmd));
    });
    stage_->start();
  }

  void TearDown() override {
    if (stage_) stage_->stop();
  }

  CommittedBatch batch(SeqNum seq, std::initializer_list<RequestId> ids,
                       ClientId client = 1001) {
    auto requests = std::make_shared<std::vector<Request>>();
    for (RequestId id : ids) {
      Request req;
      req.client = client;
      req.id = id;
      req.payload = to_bytes("x");
      requests->push_back(std::move(req));
    }
    // Stability basis as a real pillar would stamp it: the commit is
    // always inside the window authorized by its checkpoint.
    const SeqNum basis =
        seq > config_.protocol.window ? seq - config_.protocol.window : 0;
    return CommittedBatch{
        seq, 0, requests,
        static_cast<std::uint32_t>(seq % config_.num_pillars), basis};
  }

  bool wait_stats(const std::function<bool(const ExecutionStats&)>& pred,
                  int ms = 2000) {
    for (int spin = 0; spin < ms / 10; ++spin) {
      if (pred(stage_->stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred(stage_->stats());
  }

  bool wait_replies(std::size_t count, int ms = 2000) {
    for (int spin = 0; spin < ms / 10; ++spin) {
      if (transport_.sent_count() >= count) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return transport_.sent_count() >= count;
  }

  ReplicaRuntimeConfig config_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  std::unique_ptr<app::Service> service_;
  FakeTransport transport_;
  CommandLog log_;
  ExecutionStage::SnapshotFn snapshot_fn_;  ///< installed by start() if set
  std::unique_ptr<ExecutionStage> stage_;
};

TEST_F(ExecutionStageTest, ExecutesInSequenceOrderDespiteArrivalOrder) {
  start();
  // Arrive out of order: 3, 1, 2.
  stage_->admit(batch(3, {30}));
  stage_->admit(batch(1, {10}));
  stage_->admit(batch(2, {20}));
  ASSERT_TRUE(wait_replies(3));
  stage_->stop();

  // Replies are sent in execution order: request 10, 20, 30.
  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 3u);
  std::vector<RequestId> order;
  for (const auto& s : sent) {
    auto decoded = decode_message(s.frame);
    ASSERT_TRUE(decoded);
    order.push_back(std::get<Reply>(decoded->msg).id);
  }
  EXPECT_EQ(order, (std::vector<RequestId>{10, 20, 30}));
  EXPECT_EQ(stage_->stats().requests_executed, 3u);
  EXPECT_EQ(stage_->stats().last_executed_seq, 3u);
}

TEST_F(ExecutionStageTest, HoldsBackUntilGapCloses) {
  start();
  stage_->admit(batch(2, {20}));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(stage_->stats().requests_executed, 0u) << "seq 1 missing";
  stage_->admit(batch(1, {10}));
  ASSERT_TRUE(wait_replies(2));
  EXPECT_EQ(stage_->stats().requests_executed, 2u);
}

TEST_F(ExecutionStageTest, DuplicateRequestSuppressedAndReplyResent) {
  start();
  stage_->admit(batch(1, {7}));
  ASSERT_TRUE(wait_replies(1));
  // The same request committed again at a later sequence number (client
  // retransmission raced the first instance).
  stage_->admit(batch(2, {7}));
  ASSERT_TRUE(wait_replies(2));
  stage_->stop();

  EXPECT_EQ(stage_->stats().requests_executed, 1u) << "executed once";
  EXPECT_EQ(stage_->stats().duplicates_suppressed, 1u);
  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 2u) << "cached reply resent";
  auto a = decode_message(sent[0].frame);
  auto b = decode_message(sent[1].frame);
  EXPECT_EQ(std::get<Reply>(a->msg).result, std::get<Reply>(b->msg).result);
}

TEST_F(ExecutionStageTest, NoopBatchesAdvanceWithoutExecution) {
  start();
  // seq 1 belongs to pillar 1 of 2 under c(p,i) = p + i*NP.
  stage_->admit(CommittedBatch{
      1, 0, std::make_shared<std::vector<Request>>(), 1});
  stage_->admit(batch(2, {5}));
  ASSERT_TRUE(wait_replies(1));
  EXPECT_EQ(stage_->stats().noops_executed, 1u);
  EXPECT_EQ(stage_->stats().requests_executed, 1u);
}

TEST_F(ExecutionStageTest, CheckpointTriggeredAtIntervalWithRoundRobinOwner) {
  start(ReplyMode::kAll, /*pillars=*/2);
  for (SeqNum s = 1; s <= 20; ++s)
    stage_->admit(batch(s, {static_cast<RequestId>(s)}));
  ASSERT_TRUE(log_.wait_for([](const auto& commands) {
    int checkpoints = 0;
    for (const auto& [pillar, cmd] : commands)
      if (std::holds_alternative<StartCheckpoint>(cmd)) ++checkpoints;
    return checkpoints >= 2;
  }));
  stage_->stop();

  std::vector<std::pair<std::uint32_t, SeqNum>> checkpoints;
  for (const auto& [pillar, cmd] : log_.commands)
    if (const auto* cp = std::get_if<StartCheckpoint>(&cmd))
      checkpoints.emplace_back(pillar, cp->seq);
  ASSERT_GE(checkpoints.size(), 2u);
  // interval 10: checkpoint at 10 owned by pillar (10/10)%2=1, at 20 by
  // (20/10)%2=0 — the paper's round-robin checkpoint distribution. Each
  // command goes only to the owning pillar, in execution order.
  EXPECT_EQ(checkpoints[0], (std::pair<std::uint32_t, SeqNum>{1u, 10u}));
  EXPECT_EQ(checkpoints[1], (std::pair<std::uint32_t, SeqNum>{0u, 20u}));
}

TEST_F(ExecutionStageTest, GapFillRequestedWhenStalled) {
  start();
  stage_->admit(batch(5, {50}));  // seqs 1-4 missing
  // The stage times the stall and asks every pillar to fill its own
  // slice — wait until every pillar was asked.
  ASSERT_TRUE(log_.wait_for([&](const auto& commands) {
    std::set<std::uint32_t> pillars;
    for (const auto& [pillar, cmd] : commands)
      if (std::holds_alternative<FillGap>(cmd)) pillars.insert(pillar);
    return pillars.size() >= config_.num_pillars;
  }));
  // Every pillar is asked to fill its slice up to the buffered frontier.
  std::set<std::uint32_t> asked;
  SeqNum target = 0;
  {
    std::lock_guard lock(log_.mutex);
    for (const auto& [pillar, cmd] : log_.commands)
      if (const auto* gap = std::get_if<FillGap>(&cmd)) {
        asked.insert(pillar);
        target = gap->seq;
      }
  }
  EXPECT_EQ(asked.size(), 2u);
  EXPECT_EQ(target, 5u);
}

TEST_F(ExecutionStageTest, GapFillTargetsHighestAdmittedAndNamesTheFrontier) {
  start(ReplyMode::kAll, /*pillars=*/3);
  constexpr SeqNum kWithheld = 17;
  constexpr SeqNum kHighest = 30;
  // Everything below the withheld seq first, then the rest highest first:
  // the inbox is FIFO, so the stage has seen seq 30 before it can see any
  // gap, and every fill it sends names the final target and frontier.
  for (SeqNum s = 1; s < kWithheld; ++s)
    stage_->admit(batch(s, {static_cast<RequestId>(s)}));
  for (SeqNum s = kHighest; s > kWithheld; --s)
    stage_->admit(batch(s, {static_cast<RequestId>(s)}));
  ASSERT_TRUE(log_.wait_for([&](const auto& commands) {
    std::size_t fills = 0;
    for (const auto& [pillar, cmd] : commands)
      if (std::holds_alternative<FillGap>(cmd)) ++fills;
    return fills >= config_.num_pillars;
  }));
  stage_->stop();

  // One fill per pillar per timed-out stall, each for its own slice.
  std::vector<std::uint32_t> asked;
  for (const auto& [pillar, cmd] : log_.commands) {
    const auto* gap = std::get_if<FillGap>(&cmd);
    if (!gap) continue;
    asked.push_back(pillar);
    EXPECT_EQ(gap->seq, kHighest) << "fill targets the highest admitted seq";
    EXPECT_EQ(gap->frontier, kWithheld) << "fill names the stalled frontier";
  }
  ASSERT_GE(asked.size(), 3u);
  ASSERT_EQ(asked.size() % 3, 0u) << "fills come in rounds of NP";
  for (std::size_t i = 0; i < asked.size(); ++i)
    EXPECT_EQ(asked[i], i % 3) << "fill " << i;
  EXPECT_EQ(stage_->stats().gap_fills_requested, asked.size());
  EXPECT_EQ(stage_->stats().last_executed_seq, kWithheld - 1);
}

TEST_F(ExecutionStageTest, OmitOneSkipsDeterministicReplica) {
  start(ReplyMode::kOmitOne);
  // Find a request id whose omitted replier is replica 1 (self), and one
  // whose is not.
  RequestId omitted_id = 0, replied_id = 0;
  for (RequestId id = 1; id < 50 && (!omitted_id || !replied_id); ++id) {
    if (config_.omitted_replier(request_key(1001, id)) == 1)
      omitted_id = omitted_id ? omitted_id : id;
    else
      replied_id = replied_id ? replied_id : id;
  }
  ASSERT_NE(omitted_id, 0u);
  ASSERT_NE(replied_id, 0u);

  stage_->admit(batch(1, {omitted_id}));
  stage_->admit(batch(2, {replied_id}));
  ASSERT_TRUE(wait_replies(1));
  // A retransmission of the omitted request is still answered from the
  // cache: the reply cache is replicated state, independent of which
  // replica omitted the original reply.
  stage_->admit(batch(3, {omitted_id}));
  ASSERT_TRUE(wait_replies(2));
  stage_->stop();

  EXPECT_EQ(stage_->stats().replies_omitted, 1u);
  EXPECT_EQ(stage_->stats().replies_sent, 2u);
  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 2u) << "the omitted original sent no frame";
  EXPECT_EQ(std::get<Reply>(decode_message(sent[0].frame)->msg).id,
            replied_id);
  EXPECT_EQ(std::get<Reply>(decode_message(sent[1].frame)->msg).id,
            omitted_id);
}

// ---- reply path ----------------------------------------------------------

TEST_F(ExecutionStageTest, ReplyCarriesCommitView) {
  start();
  // A commit delivered after a view change must stamp the new view into
  // the reply (clients match replies against the view they learn).
  CommittedBatch post_view_change = batch(1, {5});
  post_view_change.view = 3;
  stage_->admit(std::move(post_view_change));
  ASSERT_TRUE(wait_replies(1));
  stage_->stop();

  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(std::get<Reply>(decode_message(sent[0].frame)->msg).view, 3u);
}

TEST_F(ExecutionStageTest, ReplyCacheEvictsOldestAndServesIndexedHits) {
  start();
  // Fill one client's reply cache past its 32-entry bound: ids 1..40, so
  // the 8 oldest (1..8) are evicted.
  for (SeqNum s = 1; s <= 40; ++s)
    stage_->admit(batch(s, {static_cast<RequestId>(s)}));
  ASSERT_TRUE(wait_replies(40));
  // A retransmission of a still-cached id is answered from the index; a
  // retransmission of an evicted id is suppressed without a reply.
  stage_->admit(batch(41, {40}));
  stage_->admit(batch(42, {2}));
  ASSERT_TRUE(wait_replies(41));
  ASSERT_TRUE(wait_stats(
      [](const ExecutionStats& s) { return s.duplicates_suppressed >= 2; }));
  stage_->stop();

  ExecutionStats stats = stage_->stats();
  EXPECT_EQ(stats.requests_executed, 40u) << "retransmissions not re-run";
  EXPECT_EQ(stats.duplicates_suppressed, 2u);
  EXPECT_EQ(stats.duplicates_unanswered, 1u) << "only the evicted miss";
  EXPECT_EQ(stats.replies_sent, 41u) << "hit resent, evicted miss silent";

  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 41u) << "evicted id 2 gets no frame";
  const Reply first = std::get<Reply>(decode_message(sent[39].frame)->msg);
  const Reply resent = std::get<Reply>(decode_message(sent[40].frame)->msg);
  ASSERT_EQ(first.id, 40u);
  EXPECT_EQ(resent.id, 40u);
  EXPECT_EQ(resent.result, first.result);
}

// A reply the transport refuses is still sealed and counted as sent, and
// counted once more as unsent; replies to other clients are unaffected.
TEST_F(ExecutionStageTest, RefusedReplyCountsAsUnsent) {
  transport_.refuse(client_node(1002));
  start();
  stage_->admit(batch(1, {1}, /*client=*/1001));
  stage_->admit(batch(2, {1}, /*client=*/1002));
  ASSERT_TRUE(wait_stats([](const ExecutionStats& s) {
    return s.replies_sent >= 2 && s.replies_unsent >= 1;
  }));
  stage_->stop();

  ExecutionStats stats = stage_->stats();
  EXPECT_EQ(stats.replies_sent, 2u);
  EXPECT_EQ(stats.replies_unsent, 1u);
  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].to, client_node(1001));
}

TEST_F(ExecutionStageTest, ReplyFrameIsTheSealOfTheExecutedResult) {
  start();
  stage_->admit(batch(1, {9}));
  ASSERT_TRUE(wait_replies(1));
  stage_->stop();

  EXPECT_EQ(stage_->stats().replies_sent, 1u);
  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].to, client_node(1001));
  // Byte for byte the Reply the stage must build: commit view, request
  // ids, this replica, the (post-processed) result, one MAC for the client.
  protocol::Message expected =
      Reply{/*view=*/0, 1001, 9, /*replica=*/1, Bytes(4, Byte{0xab}), {}};
  EXPECT_EQ(sent[0].frame, seal_message(expected, *crypto_, replica_node(1),
                                        {client_node(1001)}));
  auto decoded = decode_message(sent[0].frame);
  ASSERT_TRUE(decoded);
  const auto& reply = std::get<Reply>(decoded->msg);
  EXPECT_EQ(reply.id, 9u);
  ByteSpan body{sent[0].frame.data(), decoded->body_size};
  EXPECT_TRUE(reply.auth.verify(*crypto_, replica_node(1),
                                client_node(1001), body));
}

TEST_F(ExecutionStageTest, PostProcessDecoratesFreshRepliesOnly) {
  service_ = std::make_unique<MarkingService>();
  auto artifact = std::make_shared<Bytes>();
  snapshot_fn_ = [artifact](SeqNum seq, const crypto::Digest&,
                            CheckpointHandOff h) {
    if (seq == 10) *artifact = h.encode();
  };
  start();
  // Request 7 executes at seq 1; no-ops carry the order to the checkpoint
  // at seq 10; seq 11 retransmits request 7.
  stage_->admit(batch(1, {7}));
  for (SeqNum s = 2; s <= 10; ++s) stage_->admit(batch(s, {}));
  stage_->admit(batch(11, {7}));
  ASSERT_TRUE(wait_replies(2));
  stage_->stop();  // joins the stage thread, which wrote `artifact`

  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(std::get<Reply>(decode_message(sent[0].frame)->msg).result,
            to_bytes("raw!"))
      << "a fresh reply is post-processed";
  EXPECT_EQ(std::get<Reply>(decode_message(sent[1].frame)->msg).result,
            to_bytes("raw"))
      << "a cached retransmission resends the raw result";

  // The client table is replicated state: it caches the raw result.
  Bytes expected_table;
  {
    WireWriter w(expected_table);
    w.u32(1);     // clients
    w.u32(1001);  // client id
    w.u64(7);     // max_done
    w.u32(1);     // done ids
    w.u64(7);
    w.u32(1);  // cached replies
    w.u64(7);  // request id
    w.u64(1);  // seq it executed in
    w.bytes(to_bytes("raw"));
  }
  auto decoded = CheckpointArtifact::decode(*artifact);
  ASSERT_TRUE(decoded) << "no checkpoint artifact at seq 10";
  EXPECT_EQ(decoded->client_table, expected_table);
}

// ---- reorder buffer under adversarial sequence patterns -----------------
//
// window=40 sets the reorder span at 128 (2·window+2 rounded up to a power
// of two), so with the frontier at 1 the stage buffers seqs up to 128 and
// drops seq 130. A Byzantine pillar — or a stale stable_basis after state
// transfer — can legally present it.

std::atomic<std::uint64_t> g_invariant_fires{0};
void count_invariant(const InvariantViolation&) {
  g_invariant_fires.fetch_add(1, std::memory_order_relaxed);
}

TEST_F(ExecutionStageTest, CommitBeyondReorderSpanDroppedAndCounted) {
  start(ReplyMode::kAll, /*pillars=*/1);
  stage_->admit(batch(2, {20}));    // parked: seq 1 missing
  stage_->admit(batch(130, {13}));  // 130 >= frontier 1 + span 128
  ASSERT_TRUE(wait_stats(
      [](const ExecutionStats& s) { return s.reorder_slot_drops >= 1; }));

  // Seq 2 is buffered; 130 is dropped (a replica this far behind
  // recovers it by state transfer).
  stage_->admit(batch(1, {10}));
  ASSERT_TRUE(wait_replies(2));
  stage_->stop();
  ExecutionStats stats = stage_->stats();
  EXPECT_EQ(stats.reorder_slot_drops, 1u);
  EXPECT_EQ(stats.requests_executed, 2u) << "collided 130 must not execute";
  EXPECT_EQ(stats.last_executed_seq, 2u);
}

TEST_F(ExecutionStageTest, CommitBeyondReorderSpanDroppedWhenItArrivesFirst) {
  start(ReplyMode::kAll, /*pillars=*/1);
  // Reverse arrival order: the span is measured from the frontier, not
  // from what is buffered, so 130 is dropped even into an empty buffer.
  stage_->admit(batch(130, {13}));
  stage_->admit(batch(2, {20}));
  ASSERT_TRUE(wait_stats(
      [](const ExecutionStats& s) { return s.reorder_slot_drops >= 1; }));

  stage_->admit(batch(1, {10}));
  ASSERT_TRUE(wait_replies(2));
  stage_->stop();
  auto sent = transport_.take_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(std::get<Reply>(decode_message(sent[1].frame)->msg).id, 20u)
      << "seq 2 was buffered and executed";
  EXPECT_EQ(stage_->stats().requests_executed, 2u);
}

TEST_F(ExecutionStageTest, DriftAtBoundAdmittedOnePastBoundFires) {
  g_invariant_fires.store(0);
  InvariantHandler prev = set_invariant_handler(&count_invariant);
  start(ReplyMode::kAll, /*pillars=*/1);

  // Exactly at the drift bound: seq = stable_basis + window is legal.
  CommittedBatch at_bound = batch(41, {41});
  at_bound.stable_basis = 1;
  stage_->admit(std::move(at_bound));
  // One past the bound violates §3.4's checkpoint-window drift invariant.
  CommittedBatch past_bound = batch(42, {42});
  past_bound.stable_basis = 1;
  stage_->admit(std::move(past_bound));
  ASSERT_TRUE(wait_stats([](const ExecutionStats&) {
    return g_invariant_fires.load() >= 1;
  }));
  stage_->stop();
  set_invariant_handler(prev);
  EXPECT_EQ(g_invariant_fires.load(), 1u) << "at-bound batch must not fire";
}

TEST_F(ExecutionStageTest, SequentialWrapAroundExecutesEverything) {
  start(ReplyMode::kAll, /*pillars=*/1);
  // 300 seqs > 2 reorder spans (128): steady in-order flow must never
  // drop. Submit in chunks smaller than the span and let execution drain
  // between them — a single burst would outrun the frontier and make
  // drops legal.
  constexpr SeqNum kTotal = 300;
  constexpr SeqNum kChunk = 100;
  for (SeqNum s = 1; s <= kTotal; ++s) {
    stage_->admit(batch(s, {static_cast<RequestId>(s)}));
    if (s % kChunk == 0) {
      ASSERT_TRUE(wait_replies(s, /*ms=*/10'000)) << s;
    }
  }
  ASSERT_TRUE(wait_replies(kTotal, /*ms=*/10'000));
  stage_->stop();
  ExecutionStats stats = stage_->stats();
  EXPECT_EQ(stats.requests_executed, kTotal);
  EXPECT_EQ(stats.last_executed_seq, kTotal);
  EXPECT_EQ(stats.reorder_slot_drops, 0u);
}

}  // namespace
}  // namespace copbft::test
