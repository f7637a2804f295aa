// The agreement path's allocation-free structures: vote sets kept as
// replica bitmasks, the instance log kept as window-indexed slots that
// wrap at every checkpoint, and one batch per instance shared by its
// PrePrepare, the instance and its Deliver.
#include <gtest/gtest.h>

#include "protocol/wire.hpp"
#include "support/core_harness.hpp"

namespace copbft::test {
namespace {

Bytes payload(int i) { return to_bytes("log-" + std::to_string(i)); }

/// window = 2 x checkpoint_interval: every slot is reused once per two
/// intervals.
ProtocolConfig wrap_config() {
  ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.max_faulty = 1;
  cfg.checkpoint_interval = 10;
  cfg.window = 20;
  cfg.max_batch = 1;
  cfg.view_change_timeout_us = 0;
  cfg.retransmit_interval_us = 100'000;
  return cfg;
}

/// The request keys replica `r` delivered, in seq order.
std::vector<std::uint64_t> delivered_keys(const PillarGroupHarness& h,
                                          ReplicaId r) {
  std::vector<std::uint64_t> keys;
  for (const auto& batch : h.delivered_sorted(r))
    for (const auto& req : batch.requests) keys.push_back(req.key());
  return keys;
}

/// One core driven by hand: the test plays every peer.
struct LoneCore {
  explicit LoneCore(ProtocolConfig config, ReplicaId self)
      : crypto(crypto::make_null_crypto()),
        core(config, self, SeqSlice{0, 1}, verifier, *crypto) {}

  void feed(Message msg) {
    IncomingMessage im;
    im.msg = std::move(msg);
    core.on_message(std::move(im), 0);
    drain();
  }
  void drain() {
    core.take_effects(effects);
    for (Effect& e : effects) seen.push_back(std::move(e));
  }
  template <typename T>
  std::size_t broadcasts() const {
    std::size_t n = 0;
    for (const Effect& e : seen)
      if (const auto* bc = std::get_if<Broadcast>(&e))
        n += std::holds_alternative<T>(bc->msg) ? 1 : 0;
    return n;
  }
  const Deliver* delivered() const {
    for (const Effect& e : seen)
      if (const auto* d = std::get_if<Deliver>(&e)) return d;
    return nullptr;
  }

  std::unique_ptr<crypto::CryptoProvider> crypto;
  AcceptAllVerifier verifier;
  PbftCore core;
  std::vector<Effect> effects;
  std::vector<Effect> seen;
};

PrePrepare proposal(const crypto::CryptoProvider& crypto, SeqNum seq) {
  PrePrepare pp;
  pp.view = 0;
  pp.seq = seq;
  pp.requests = {Request{1001, seq, 0, payload(static_cast<int>(seq)), {}}};
  pp.digest = batch_digest(crypto, pp.requests);
  return pp;
}

// ---- vote sets -----------------------------------------------------------

TEST(ReplicaSet, CountsEachReplicaOnce) {
  ReplicaSet set;
  EXPECT_EQ(set.size(), 0u);
  set.insert(3);
  set.insert(3);
  set.insert(0);
  set.insert(ReplicaSet::kCapacity - 1);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(3));
  EXPECT_TRUE(set.contains(ReplicaSet::kCapacity - 1));
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(ReplicaSet::kCapacity));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(3));
}

TEST(ReplicaSet, ValidateRejectsAGroupWiderThanTheMask) {
  ProtocolConfig cfg;
  cfg.num_replicas = ReplicaSet::kCapacity;
  cfg.max_faulty = 21;
  EXPECT_NO_THROW(cfg.validate());
  cfg.num_replicas = ReplicaSet::kCapacity + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(VoteQuorum, PrepareAt2fAndCommitAt2fPlus1CountingDuplicatesOnce) {
  // N = 7, f = 2: a follower prepares with 2f = 4 prepares (its own, the
  // proposer's never) and delivers with 2f + 1 = 5 commits.
  ProtocolConfig cfg = wrap_config();
  cfg.num_replicas = 7;
  cfg.max_faulty = 2;
  LoneCore f(cfg, /*self=*/1);
  const PrePrepare pp = proposal(*f.crypto, 1);
  const auto prepare = [&](ReplicaId r) {
    f.feed(Prepare{0, 1, pp.digest, r, {}});
  };
  const auto commit = [&](ReplicaId r) {
    f.feed(Commit{0, 1, pp.digest, r, {}});
  };

  // A duplicate that waited for the proposal is not counted twice.
  prepare(2);
  prepare(2);
  f.feed(pp);
  ASSERT_EQ(f.broadcasts<Prepare>(), 1u);
  prepare(0);  // the proposer's prepare never counts
  prepare(3);
  prepare(3);
  EXPECT_EQ(f.broadcasts<Commit>(), 0u) << "three prepares, one a repeat";
  prepare(4);
  EXPECT_EQ(f.broadcasts<Commit>(), 1u) << "the fourth distinct prepare";

  commit(2);
  commit(2);
  commit(3);
  commit(4);
  EXPECT_EQ(f.delivered(), nullptr) << "four commits, one a repeat";
  commit(5);
  ASSERT_NE(f.delivered(), nullptr) << "the fifth distinct commit";
  // Only votes that counted were checked.
  EXPECT_EQ(f.core.stats().macs_verified, 1u + 3u + 4u);
}

// ---- one batch per instance ---------------------------------------------

TEST(SharedBatch, BackupDeliversTheBatchItsPrePrepareDecoded) {
  LoneCore f(wrap_config(), /*self=*/1);
  const PrePrepare pp = proposal(*f.crypto, 1);
  auto decoded = decode_message(encode_message(Message{pp}));
  ASSERT_TRUE(decoded.has_value());
  const auto* batch =
      std::get<PrePrepare>(decoded->msg).requests.shared().get();

  f.feed(std::move(decoded->msg));
  f.feed(Prepare{0, 1, pp.digest, 2, {}});
  f.feed(Commit{0, 1, pp.digest, 2, {}});
  f.feed(Commit{0, 1, pp.digest, 3, {}});
  const Deliver* deliver = f.delivered();
  ASSERT_NE(deliver, nullptr);
  EXPECT_EQ(deliver->requests.get(), batch) << "a copy was delivered";
  EXPECT_EQ(deliver->requests->at(0).key(), request_key(1001, 1));
}

TEST(SharedBatch, LeaderSendsAndDeliversOneBatch) {
  LoneCore l(wrap_config(), /*self=*/0);
  l.core.on_request(Request{1001, 1, 0, payload(1), {}}, 0, true);
  l.drain();
  const PrePrepare* sent = nullptr;
  for (const Effect& e : l.seen)
    if (const auto* bc = std::get_if<Broadcast>(&e))
      sent = std::get_if<PrePrepare>(&bc->msg);
  ASSERT_NE(sent, nullptr);
  const auto* batch = sent->requests.shared().get();
  const crypto::Digest digest = sent->digest;

  l.feed(Prepare{0, 1, digest, 1, {}});
  l.feed(Prepare{0, 1, digest, 2, {}});
  l.feed(Commit{0, 1, digest, 1, {}});
  l.feed(Commit{0, 1, digest, 2, {}});
  const Deliver* deliver = l.delivered();
  ASSERT_NE(deliver, nullptr);
  EXPECT_EQ(deliver->requests.get(), batch);
}

// ---- the slot log -------------------------------------------------------

TEST(SlotLog, SlotsWrapAcrossCheckpointIntervals) {
  for (const SeqSlice slice : {SeqSlice{0, 1}, SeqSlice{0, 2}}) {
    PillarGroupHarness h({wrap_config(), slice});
    // 55 instances: every slot is reused at least twice.
    for (int i = 1; i <= 55; ++i) h.client_request(1001, i, payload(i));
    h.run_until_quiescent();

    std::vector<std::uint64_t> expected;
    for (int i = 1; i <= 55; ++i) expected.push_back(request_key(1001, i));
    // Slice {0, 2} starts at 2 (0 is genesis).
    const SeqNum last = 55 * slice.stride;
    for (ReplicaId r = 0; r < 4; ++r) {
      EXPECT_EQ(delivered_keys(h, r), expected) << "replica " << r;
      EXPECT_EQ(h.delivered_sorted(r).back().seq, last);
      EXPECT_EQ(h.stable_checkpoints(r).size(), last / 10) << "replica " << r;
      // Everything at or below the stable checkpoint left the log.
      EXPECT_LE(h.core(r).open_instances(),
                (last - h.core(r).stable_seq()) / slice.stride);
    }
  }
}

TEST(SlotLog, OverWindowProposalsReplayIntoReusedSlots) {
  ProtocolConfig cfg = wrap_config();
  cfg.checkpoint_interval = 5;
  cfg.window = 10;
  PillarGroupHarness h({cfg, SeqSlice{0, 1}, 1, false, 0.0, nullptr,
                        /*auto_checkpoint=*/false});
  const crypto::Digest d;
  int next = 1;
  // Three intervals with the whole group sliding together: seqs 11..15
  // reuse the slots of 1..5.
  const auto submit = [&](int n) {
    for (int i = 0; i < n; ++i, ++next)
      h.client_request(1001, next, payload(next), {0});
    h.run_until_quiescent();
  };
  for (SeqNum stable : {5, 10, 15}) {
    submit(5);
    for (ReplicaId r = 0; r < 4; ++r)
      h.core(r).note_checkpoint_stable(stable, d);
    h.tick_all();
    h.run_until_quiescent();
  }
  submit(15);
  ASSERT_EQ(h.delivered_sorted(1).size(), 25u) << "the window (15, 25] is full";

  // Only the leader slides to (20, 30]: its proposals 26..30 lie over the
  // followers' windows and are parked, then replayed into the slots
  // 16..20 leave when the followers slide too.
  h.core(0).note_checkpoint_stable(20, d);
  h.tick_all();
  h.run_until_quiescent();
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.delivered_sorted(r).size(), 25u) << "replica " << r;
    EXPECT_GE(h.core(r).stats().over_window_deferred, 5u) << "replica " << r;
  }
  for (ReplicaId r = 1; r < 4; ++r) h.core(r).note_checkpoint_stable(20, d);
  h.tick_all();
  h.run_until_quiescent();
  std::vector<std::uint64_t> expected;
  for (int i = 1; i <= 30; ++i) expected.push_back(request_key(1001, i));
  for (ReplicaId r = 0; r < 4; ++r)
    EXPECT_EQ(delivered_keys(h, r), expected) << "replica " << r;
}

TEST(SlotLog, ViewChangeReproposesPreparedInstancesFromReusedSlots) {
  ProtocolConfig cfg = wrap_config();
  cfg.view_change_timeout_us = 1'000'000;
  cfg.retransmit_interval_us = 0;
  auto options = PillarGroupHarness::Options{cfg};
  int phase = 0;  // 0: all flows; 1: commits are lost; 2: replica 0 is dead
  options.drop = [&phase](ReplicaId from, ReplicaId, const Message& m) {
    if (phase == 1) return std::holds_alternative<Commit>(m);
    return phase == 2 && from == 0;
  };
  PillarGroupHarness h(std::move(options));

  for (int i = 1; i <= 25; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();
  ASSERT_EQ(h.core(1).stable_seq(), 20u);

  // 26..28 prepare everywhere in slots 6..8, which held 6..8 before, and
  // commit nowhere; then the leader goes silent.
  phase = 1;
  for (int i = 26; i <= 28; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();
  for (ReplicaId r = 0; r < 4; ++r)
    ASSERT_EQ(h.delivered(r).size(), 25u) << "commits were lost";

  phase = 2;
  h.advance_time(1'500'000);
  h.tick_all();
  h.run_until_quiescent();
  h.tick_all();
  h.run_until_quiescent();

  std::vector<std::uint64_t> expected;
  for (int i = 1; i <= 28; ++i) expected.push_back(request_key(1001, i));
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.core(r).view(), 1u) << "replica " << r;
    EXPECT_EQ(delivered_keys(h, r), expected) << "replica " << r;
  }
}

TEST(SlotLog, FetchedProposalLandsInAReusedSlot) {
  auto options = PillarGroupHarness::Options{wrap_config()};
  bool lossy = false;
  options.drop = [&lossy](ReplicaId, ReplicaId to, const Message& m) {
    return lossy && to == 2 && std::holds_alternative<PrePrepare>(m);
  };
  PillarGroupHarness h(std::move(options));
  for (int i = 1; i <= 25; ++i) h.client_request(1001, i, payload(i));
  h.run_until_quiescent();

  // Replica 2 misses the proposal for 26 (slot 6) and fetches it.
  lossy = true;
  h.client_request(1001, 26, payload(26), {0, 1, 3});
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered(2).size(), 25u);
  lossy = false;
  h.advance_time(150'000);
  h.tick_all();
  h.run_until_quiescent();
  h.advance_time(150'000);
  h.tick_all();
  h.run_until_quiescent();

  ASSERT_EQ(h.delivered(2).size(), 26u);
  EXPECT_EQ(h.delivered_sorted(2).back().seq, 26u);
  EXPECT_EQ(h.delivered_sorted(2).back().requests.at(0).key(),
            request_key(1001, 26));
}

TEST(SlotLog, NewViewBeyondTheWindowAsksForStateTransfer) {
  // A coordinator whose base leads this replica's stable checkpoint by
  // more than the window re-proposes an instance the log cannot hold.
  LoneCore f(wrap_config(), /*self=*/2);
  NewView nv;
  nv.view = 1;
  nv.replica = 1;
  nv.pre_prepares.push_back(proposal(*f.crypto, 5));
  nv.pre_prepares.back().view = 1;
  nv.pre_prepares.push_back(proposal(*f.crypto, 25));
  nv.pre_prepares.back().view = 1;
  f.feed(nv);

  EXPECT_EQ(f.core.view(), 1u);
  EXPECT_EQ(f.core.open_instances(), 1u) << "seq 5 only";
  EXPECT_EQ(f.core.stats().state_transfer_hints, 1u);
  EXPECT_EQ(f.core.next_proposal_seq(), 26u);
}

}  // namespace
}  // namespace copbft::test
