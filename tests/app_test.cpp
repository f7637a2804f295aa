#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "app/coordination.hpp"
#include "app/kv_store.hpp"
#include "app/null_service.hpp"
#include "common/invariant.hpp"
#include "protocol/wire.hpp"

namespace copbft::app {
namespace {

protocol::Request make_request(Bytes payload, protocol::RequestId id = 1) {
  protocol::Request req;
  req.client = 1001;
  req.id = id;
  req.payload = std::move(payload);
  return req;
}

// ---- NullService --------------------------------------------------------

TEST(NullService, ReplySizeConfigurable) {
  NullService svc(128);
  Bytes reply = svc.execute(make_request({}));
  EXPECT_EQ(reply.size(), 128u);
  EXPECT_EQ(svc.executed(), 1u);
}

TEST(NullService, DigestTracksExecutionCount) {
  NullService a, b;
  EXPECT_EQ(a.state_digest(), b.state_digest());
  a.execute(make_request({}));
  EXPECT_NE(a.state_digest(), b.state_digest());
  b.execute(make_request({}));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

// ---- KvStore ------------------------------------------------------------

class KvStoreTest : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> crypto_ =
      crypto::make_null_crypto();
  KvStore store_{*crypto_};

  KvResult run(KvOpCode op, const std::string& key, Bytes value = {}) {
    Bytes reply = store_.execute(make_request(KvOp{op, key, value}.encode()));
    auto result = KvResult::decode(reply);
    EXPECT_TRUE(result);
    return *result;
  }
};

TEST_F(KvStoreTest, PutGetDelete) {
  EXPECT_EQ(run(KvOpCode::kGet, "a").status, KvStatus::kNotFound);
  EXPECT_EQ(run(KvOpCode::kPut, "a", to_bytes("1")).status, KvStatus::kOk);
  auto got = run(KvOpCode::kGet, "a");
  EXPECT_EQ(got.status, KvStatus::kOk);
  EXPECT_EQ(got.value, to_bytes("1"));
  EXPECT_EQ(run(KvOpCode::kDelete, "a").status, KvStatus::kOk);
  EXPECT_EQ(run(KvOpCode::kGet, "a").status, KvStatus::kNotFound);
  EXPECT_EQ(run(KvOpCode::kDelete, "a").status, KvStatus::kNotFound);
}

TEST_F(KvStoreTest, OverwriteChangesValue) {
  run(KvOpCode::kPut, "k", to_bytes("v1"));
  run(KvOpCode::kPut, "k", to_bytes("v2"));
  EXPECT_EQ(run(KvOpCode::kGet, "k").value, to_bytes("v2"));
  EXPECT_EQ(store_.size(), 1u);
}

TEST_F(KvStoreTest, MalformedPayloadRejected) {
  Bytes reply = store_.execute(make_request(to_bytes("garbage")));
  auto result = KvResult::decode(reply);
  ASSERT_TRUE(result);
  EXPECT_EQ(result->status, KvStatus::kBadRequest);
  EXPECT_FALSE(store_.pre_validate(make_request(to_bytes("garbage"))));
}

TEST_F(KvStoreTest, StateDigestOrderIndependentAcrossKeys) {
  KvStore other(*crypto_);
  // Same final state reached in different key orders -> same digest.
  store_.execute(make_request(KvOp{KvOpCode::kPut, "a", to_bytes("1")}.encode()));
  store_.execute(make_request(KvOp{KvOpCode::kPut, "b", to_bytes("2")}.encode()));
  other.execute(make_request(KvOp{KvOpCode::kPut, "b", to_bytes("2")}.encode()));
  other.execute(make_request(KvOp{KvOpCode::kPut, "a", to_bytes("1")}.encode()));
  EXPECT_EQ(store_.state_digest().hex(), other.state_digest().hex());
}

TEST_F(KvStoreTest, StateDigestReturnsAfterUndo) {
  crypto::Digest empty = store_.state_digest();
  run(KvOpCode::kPut, "x", to_bytes("v"));
  EXPECT_NE(store_.state_digest(), empty);
  run(KvOpCode::kDelete, "x");
  EXPECT_EQ(store_.state_digest(), empty) << "incremental digest reverts";
}

TEST_F(KvStoreTest, DigestDistinguishesValues) {
  KvStore other(*crypto_);
  run(KvOpCode::kPut, "k", to_bytes("1"));
  other.execute(make_request(KvOp{KvOpCode::kPut, "k", to_bytes("2")}.encode()));
  EXPECT_NE(store_.state_digest(), other.state_digest());
}

// ---- KvStore versions ---------------------------------------------------

/// The documented snapshot encoding of `model`, built without KvStore:
/// [n u32 | (key bytes, value bytes) * n], sorted by key.
Bytes encode_model(const std::map<std::string, Bytes>& model) {
  Bytes out;
  protocol::WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(model.size()));
  for (const auto& [key, value] : model) {
    w.bytes(to_bytes(key));
    w.bytes(value);
  }
  return out;
}

class KvVersionTest : public KvStoreTest {
 protected:
  void put(const std::string& key, const std::string& value) {
    run(KvOpCode::kPut, key, to_bytes(value));
    model_[key] = to_bytes(value);
  }
  void erase(const std::string& key) {
    run(KvOpCode::kDelete, key);
    model_.erase(key);
  }

  std::map<std::string, Bytes> model_;
};

TEST_F(KvVersionTest, VersionOutlivesLaterMutation) {
  for (int i = 0; i < 300; ++i)
    put("key-" + std::to_string(i), "value-" + std::to_string(i));
  const Bytes then = store_.snapshot();
  ASSERT_EQ(then, encode_model(model_));
  const crypto::Digest digest_then = store_.state_digest();
  auto version = store_.version();

  // Overwrite, insert and delete the same keys after the version.
  for (int i = 0; i < 300; i += 2)
    put("key-" + std::to_string(i), "rewritten-" + std::to_string(i));
  for (int i = 300; i < 400; ++i)
    put("key-" + std::to_string(i), "new-" + std::to_string(i));
  for (int i = 1; i < 300; i += 3) erase("key-" + std::to_string(i));
  ASSERT_NE(store_.state_digest(), digest_then);
  EXPECT_EQ(store_.snapshot(), encode_model(model_));

  EXPECT_EQ(version->encode(), then);
  KvStore fresh(*crypto_);
  ASSERT_TRUE(fresh.restore(version->encode(), digest_then));
  EXPECT_EQ(fresh.state_digest(), digest_then);
  EXPECT_EQ(fresh.snapshot(), then);
}

TEST_F(KvVersionTest, ThreeVersionsDroppedOutOfOrder) {
  std::vector<Bytes> expected;
  std::vector<std::shared_ptr<const StateVersion>> versions;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i)
      put("key-" + std::to_string((i * 7 + round) % 80),
          "round-" + std::to_string(round) + "-" + std::to_string(i));
    if (round > 0) erase("key-" + std::to_string(round));
    expected.push_back(encode_model(model_));
    versions.push_back(store_.version());
  }
  put("key-0", "after");

  versions[1].reset();
  EXPECT_EQ(versions[0]->encode(), expected[0]);
  EXPECT_EQ(versions[2]->encode(), expected[2]);
  versions[0].reset();
  put("key-1", "after");
  EXPECT_EQ(versions[2]->encode(), expected[2]);
  versions[2].reset();
  EXPECT_EQ(store_.snapshot(), encode_model(model_));
  EXPECT_EQ(store_.size(), model_.size());
}

TEST_F(KvVersionTest, RestoreLeavesHeldVersionsAlone) {
  put("a", "1");
  put("b", "2");
  const Bytes before = store_.snapshot();
  auto version = store_.version();

  KvStore donor(*crypto_);
  donor.execute(
      make_request(KvOp{KvOpCode::kPut, "z", to_bytes("9")}.encode()));
  ASSERT_TRUE(store_.restore(donor.snapshot(), donor.state_digest()));
  model_ = {{"z", to_bytes("9")}};
  put("a", "3");
  EXPECT_EQ(version->encode(), before);
  EXPECT_EQ(store_.snapshot(), encode_model(model_));
}

#if COP_INVARIANTS_ENABLED
std::atomic<int> g_quiescence_fires{0};
void count_quiescence_violation(const InvariantViolation&) {
  g_quiescence_fires.fetch_add(1, std::memory_order_relaxed);
}

TEST_F(KvStoreTest, SnapshotDuringInFlightExecutionFiresInvariant) {
  run(KvOpCode::kPut, "k", to_bytes("v"));
  g_quiescence_fires.store(0);
  InvariantHandler prev = set_invariant_handler(&count_quiescence_violation);
  {
    // An open ExecutionScope is exactly what an execute() still in
    // progress looks like: hashing or snapshotting now would read state
    // mid-mutation. The invariant makes that loud instead of latent.
    KvStore::ExecutionScope in_flight(store_);
    (void)store_.snapshot();
    EXPECT_EQ(g_quiescence_fires.load(), 1);
    (void)store_.state_digest();
    EXPECT_EQ(g_quiescence_fires.load(), 2);
    (void)store_.version();
    EXPECT_EQ(g_quiescence_fires.load(), 3);
  }
  // Quiescent again: clean.
  (void)store_.snapshot();
  (void)store_.state_digest();
  (void)store_.version();
  set_invariant_handler(prev);
  EXPECT_EQ(g_quiescence_fires.load(), 3);
}
#endif  // COP_INVARIANTS_ENABLED

TEST(KvOp, EncodingRoundTrip) {
  KvOp op{KvOpCode::kPut, "some/key", to_bytes("value")};
  auto back = KvOp::decode(op.encode());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->op, op.op);
  EXPECT_EQ(back->key, op.key);
  EXPECT_EQ(back->value, op.value);
  EXPECT_FALSE(KvOp::decode(to_bytes("x")));
}

// ---- CoordinationService -------------------------------------------------

class CoordinationTest : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> crypto_ =
      crypto::make_null_crypto();
  CoordinationService svc_{*crypto_};

  CoordResult run(CoordOpCode op, const std::string& path, Bytes data = {}) {
    Bytes reply =
        svc_.execute(make_request(CoordOp{op, path, data}.encode()));
    auto result = CoordResult::decode(reply);
    EXPECT_TRUE(result);
    return *result;
  }
};

TEST_F(CoordinationTest, CreateGetSetDelete) {
  EXPECT_EQ(run(CoordOpCode::kCreate, "/a", to_bytes("d1")).status,
            CoordStatus::kOk);
  auto got = run(CoordOpCode::kGetData, "/a");
  EXPECT_EQ(got.status, CoordStatus::kOk);
  EXPECT_EQ(got.payload, to_bytes("d1"));
  EXPECT_EQ(got.version, 0u);

  EXPECT_EQ(run(CoordOpCode::kSetData, "/a", to_bytes("d2")).status,
            CoordStatus::kOk);
  got = run(CoordOpCode::kGetData, "/a");
  EXPECT_EQ(got.payload, to_bytes("d2"));
  EXPECT_EQ(got.version, 1u);

  EXPECT_EQ(run(CoordOpCode::kDelete, "/a").status, CoordStatus::kOk);
  EXPECT_EQ(run(CoordOpCode::kGetData, "/a").status, CoordStatus::kNoNode);
}

TEST_F(CoordinationTest, HierarchyRules) {
  EXPECT_EQ(run(CoordOpCode::kCreate, "/a/b").status, CoordStatus::kNoParent);
  EXPECT_EQ(run(CoordOpCode::kCreate, "/a").status, CoordStatus::kOk);
  EXPECT_EQ(run(CoordOpCode::kCreate, "/a").status, CoordStatus::kNodeExists);
  EXPECT_EQ(run(CoordOpCode::kCreate, "/a/b").status, CoordStatus::kOk);
  EXPECT_EQ(run(CoordOpCode::kDelete, "/a").status, CoordStatus::kNotEmpty);
  EXPECT_EQ(run(CoordOpCode::kDelete, "/a/b").status, CoordStatus::kOk);
  EXPECT_EQ(run(CoordOpCode::kDelete, "/a").status, CoordStatus::kOk);
}

TEST_F(CoordinationTest, ChildrenListing) {
  run(CoordOpCode::kCreate, "/a");
  run(CoordOpCode::kCreate, "/a/x");
  run(CoordOpCode::kCreate, "/a/y");
  auto children = run(CoordOpCode::kChildren, "/a");
  EXPECT_EQ(to_string(children.payload), "x\ny");
  auto root_children = run(CoordOpCode::kChildren, "/");
  EXPECT_EQ(to_string(root_children.payload), "a");
}

TEST_F(CoordinationTest, ExistsAndVersions) {
  EXPECT_EQ(run(CoordOpCode::kExists, "/n").status, CoordStatus::kNoNode);
  run(CoordOpCode::kCreate, "/n");
  EXPECT_EQ(run(CoordOpCode::kExists, "/n").status, CoordStatus::kOk);
  run(CoordOpCode::kSetData, "/n", to_bytes("1"));
  run(CoordOpCode::kSetData, "/n", to_bytes("2"));
  EXPECT_EQ(run(CoordOpCode::kExists, "/n").version, 2u);
}

TEST_F(CoordinationTest, PathValidation) {
  EXPECT_EQ(run(CoordOpCode::kCreate, "no-slash").status,
            CoordStatus::kBadRequest);
  EXPECT_EQ(run(CoordOpCode::kCreate, "/trailing/").status,
            CoordStatus::kBadRequest);
  EXPECT_EQ(run(CoordOpCode::kCreate, "//double").status,
            CoordStatus::kBadRequest);
  EXPECT_EQ(run(CoordOpCode::kDelete, "/").status, CoordStatus::kBadRequest);
}

TEST_F(CoordinationTest, DigestMatchesForEqualStatesOnly) {
  CoordinationService other(*crypto_);
  EXPECT_EQ(svc_.state_digest(), other.state_digest());
  run(CoordOpCode::kCreate, "/z", to_bytes("d"));
  EXPECT_NE(svc_.state_digest(), other.state_digest());
  other.execute(
      make_request(CoordOp{CoordOpCode::kCreate, "/z", to_bytes("d")}.encode()));
  EXPECT_EQ(svc_.state_digest(), other.state_digest());
  // Reads leave the digest untouched.
  crypto::Digest before = svc_.state_digest();
  run(CoordOpCode::kGetData, "/z");
  run(CoordOpCode::kChildren, "/");
  EXPECT_EQ(svc_.state_digest(), before);
}

TEST_F(CoordinationTest, DeterministicReplayYieldsSameDigest) {
  // Replaying the same operation sequence on a second instance reproduces
  // the digest — the property state-machine replication relies on.
  std::vector<CoordOp> ops = {
      {CoordOpCode::kCreate, "/app", to_bytes("root")},
      {CoordOpCode::kCreate, "/app/cfg", to_bytes("v0")},
      {CoordOpCode::kSetData, "/app/cfg", to_bytes("v1")},
      {CoordOpCode::kCreate, "/app/lock", {}},
      {CoordOpCode::kDelete, "/app/lock", {}},
  };
  CoordinationService replay(*crypto_);
  for (const auto& op : ops) {
    svc_.execute(make_request(op.encode()));
    replay.execute(make_request(op.encode()));
  }
  EXPECT_EQ(svc_.state_digest().hex(), replay.state_digest().hex());
  EXPECT_EQ(svc_.node_count(), 3u);  // "/", "/app", "/app/cfg"
}

TEST(CoordOp, EncodingRoundTrip) {
  CoordOp op{CoordOpCode::kSetData, "/a/b", to_bytes("data")};
  auto back = CoordOp::decode(op.encode());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->op, op.op);
  EXPECT_EQ(back->path, op.path);
  EXPECT_EQ(back->data, op.data);
  EXPECT_TRUE(back->is_read() == false);
  EXPECT_FALSE(CoordOp::decode(to_bytes("")));
}

}  // namespace
}  // namespace copbft::app
