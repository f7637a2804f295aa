// Seeded mutation of checkpoint artifacts, the bytes a laggard takes from
// an untrusted peer. Every mutant of one valid artifact goes through
// CheckpointArtifact::decode, KvStore::restore and the execution stage's
// install path. Each must either be rejected without a trace or install
// exactly the attested checkpoint. The seed and the iteration budget are
// fixed, so a failure replays; the test runs in tier-1 and therefore in
// the sanitizer builds.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "app/kv_store.hpp"
#include "common/rng.hpp"
#include "core/checkpoint_artifact.hpp"
#include "core/execution_stage.hpp"
#include "protocol/wire.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

constexpr std::uint64_t kSeed = 0xc4ec'4b01;
constexpr int kMutants = 1'500;
constexpr SeqNum kCheckpoint = 10;

Request kv_request(ClientId client, RequestId id, app::KvOpCode op,
                   const std::string& key, const std::string& value) {
  Request req;
  req.client = client;
  req.id = id;
  req.payload = app::KvOp{op, key, to_bytes(value)}.encode();
  return req;
}

/// Two clients' puts and gets, so the client table holds dedup ids and
/// cached replies with values.
CommittedBatch batch(SeqNum seq) {
  auto requests = std::make_shared<std::vector<Request>>();
  requests->push_back(kv_request(1001, seq, app::KvOpCode::kPut,
                                 "key-" + std::to_string(seq % 4),
                                 "value-" + std::to_string(seq)));
  requests->push_back(kv_request(1002, seq, app::KvOpCode::kGet,
                                 "key-" + std::to_string((seq + 1) % 4), ""));
  return CommittedBatch{seq, 0, requests, 0};
}

/// Offsets of the u32 length and count prefixes of a valid artifact.
struct Prefixes {
  std::vector<std::size_t> client_table;  ///< with the table's own length
  std::vector<std::size_t> kv;            ///< with the snapshot's own length
};

Prefixes find_prefixes(const Bytes& artifact) {
  Prefixes out;
  WireReader r(artifact);
  const auto here = [&] { return artifact.size() - r.remaining(); };
  out.client_table.push_back(here());
  (void)r.u32();
  out.client_table.push_back(here());
  const std::uint32_t clients = r.u32();
  for (std::uint32_t c = 0; c < clients && r.ok(); ++c) {
    (void)r.u32();  // client id
    (void)r.u64();  // max_done
    out.client_table.push_back(here());
    const std::uint32_t done = r.u32();
    for (std::uint32_t d = 0; d < done; ++d) (void)r.u64();
    out.client_table.push_back(here());
    const std::uint32_t replies = r.u32();
    for (std::uint32_t q = 0; q < replies && r.ok(); ++q) {
      (void)r.u64();  // request id
      (void)r.u64();  // seq
      out.client_table.push_back(here());
      (void)r.bytes();
    }
  }
  (void)r.digest();
  out.kv.push_back(here());
  (void)r.u32();
  out.kv.push_back(here());
  const std::uint32_t entries = r.u32();
  for (std::uint32_t e = 0; e < entries && r.ok(); ++e) {
    out.kv.push_back(here());
    (void)r.bytes();  // key
    out.kv.push_back(here());
    (void)r.bytes();  // value
  }
  EXPECT_TRUE(r.at_end()) << "the artifact layout changed";
  return out;
}

std::uint32_t read_u32(const Bytes& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[at + i]} << (8 * i);
  return v;
}

void write_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<Byte>(v >> (8 * i));
}

Bytes mutate(const Bytes& original, const Prefixes& prefixes, Rng& rng) {
  Bytes m = original;
  switch (rng.below(6)) {
    case 0:  // bit flips
      for (std::uint64_t n = 1 + rng.below(3); n > 0; --n)
        m[rng.below(m.size())] ^= static_cast<Byte>(1u << rng.below(8));
      break;
    case 1:  // byte overwrite
      m[rng.below(m.size())] = static_cast<Byte>(rng.below(256));
      break;
    case 2:  // truncation
      m.resize(rng.below(m.size()));
      break;
    case 3:  // extension
      for (std::uint64_t n = 1 + rng.below(16); n > 0; --n)
        m.push_back(static_cast<Byte>(rng.below(256)));
      break;
    default: {  // a rewritten length prefix, in the client table or the KV
      const auto& at = rng.below(2) == 0 ? prefixes.client_table : prefixes.kv;
      const std::size_t pos = at[rng.below(at.size())];
      const std::uint32_t old = read_u32(m, pos);
      const std::uint32_t values[] = {0,
                                      1,
                                      old - 1,
                                      old + 1,
                                      old * 2,
                                      0x7fff'ffff,
                                      0xffff'ffff,
                                      static_cast<std::uint32_t>(rng())};
      write_u32(m, pos, values[rng.below(std::size(values))]);
      break;
    }
  }
  return m;
}

/// A stage with some state of its own, below the checkpoint, that takes
/// installs.
struct Laggard {
  Laggard(const ReplicaRuntimeConfig& config,
          const crypto::CryptoProvider& crypto)
      : service(crypto), stage(/*self=*/3, config, service, crypto, transport) {
    stage.start();
    for (SeqNum seq = 1; seq <= 3; ++seq) stage.admit(batch(seq));
    for (int spin = 0; spin < 500 && stage.next_seq() <= 3; ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ~Laggard() { stage.stop(); }

  bool install(const crypto::Digest& digest, Bytes artifact) {
    std::promise<bool> done;
    auto result = done.get_future();
    stage.submit_install(
        InstallState{kCheckpoint, digest, std::move(artifact),
                     [&done](bool ok) { done.set_value(ok); }});
    EXPECT_EQ(result.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    return result.get();
  }

  app::KvStore service;
  FakeTransport transport;
  ExecutionStage stage;
};

TEST(CheckpointMutation, EveryMutantIsRejectedOrInstallsTheAttestedState) {
  ReplicaRuntimeConfig config;
  config.num_pillars = 1;
  config.protocol.num_pillars = 1;
  config.protocol.checkpoint_interval = kCheckpoint;
  config.protocol.window = 4 * kCheckpoint;
  auto crypto = crypto::make_real_crypto(7);

  // The donor's checkpoint at seq 10 is the valid artifact.
  app::KvStore donor_service(*crypto);
  FakeTransport donor_transport;
  ExecutionStage donor(/*self=*/0, config, donor_service, *crypto,
                       donor_transport);
  std::promise<std::pair<crypto::Digest, Bytes>> handed;
  donor.set_snapshot_fn([&handed](SeqNum seq, const crypto::Digest& digest,
                                  CheckpointHandOff checkpoint) {
    if (seq == kCheckpoint) handed.set_value({digest, checkpoint.encode()});
  });
  donor.start();
  for (SeqNum seq = 1; seq <= kCheckpoint; ++seq) donor.admit(batch(seq));
  auto future = handed.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const auto [attested, artifact] = future.get();
  donor.stop();
  const crypto::Digest service_digest = donor_service.state_digest();
  const Prefixes prefixes = find_prefixes(artifact);
  ASSERT_GE(prefixes.client_table.size(), 8u);
  ASSERT_GE(prefixes.kv.size(), 10u);

  Rng rng(kSeed);
  auto laggard = std::make_unique<Laggard>(config, *crypto);
  int installed = 0;
  for (int i = 0; i < kMutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    // Mutant 0 is the artifact itself, so the accepting path runs too.
    const Bytes mutant = i == 0 ? artifact : mutate(artifact, prefixes, rng);

    const auto decoded = CheckpointArtifact::decode(mutant);
    if (decoded) {
      app::KvStore fresh(*crypto);
      const crypto::Digest empty = fresh.state_digest();
      if (fresh.restore(decoded->service_snapshot, decoded->service_digest)) {
        EXPECT_EQ(fresh.state_digest(), decoded->service_digest);
      } else {
        EXPECT_EQ(fresh.state_digest(), empty);
        EXPECT_EQ(fresh.size(), 0u);
      }
    }

    const SeqNum seq_before = laggard->stage.next_seq();
    const crypto::Digest digest_before = laggard->service.state_digest();
    const std::uint64_t rejected_before =
        laggard->stage.stats().installs_rejected;
    if (laggard->install(attested, mutant)) {
      ASSERT_TRUE(decoded) << "an undecodable artifact installed";
      EXPECT_EQ(decoded->composite_digest(*crypto), attested);
      EXPECT_EQ(laggard->stage.next_seq(), kCheckpoint + 1);
      EXPECT_EQ(laggard->service.state_digest(), service_digest);
      ++installed;
      laggard = std::make_unique<Laggard>(config, *crypto);
    } else {
      EXPECT_EQ(laggard->stage.next_seq(), seq_before);
      EXPECT_EQ(laggard->service.state_digest(), digest_before);
      EXPECT_EQ(laggard->stage.stats().installs_rejected, rejected_before + 1);
    }
  }
  EXPECT_GE(installed, 1);
}

}  // namespace
}  // namespace copbft::test
