// Microbenchmarks of the cryptographic substrate on the build host.
//
// These are this machine's real costs: SHA-256 on whichever compression
// version the CPU selects (SHA-NI or the scalar rounds; the run's context
// records which as `sha256_compress`), HMAC under a raw key, and MACs
// through make_real_crypto, the per-pair midstate cache the replicas use.
// They do not feed the simulator: the MAC and digest constants in
// sim/cost_model.hpp describe the paper's 2013 Java testbed (EXPERIMENTS.md,
// "Cost-model calibration") and stay as they are.
#include <benchmark/benchmark.h>

#include "crypto/authenticator.hpp"
#include "crypto/provider.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"
#include "protocol/messages.hpp"

namespace {

using namespace copbft;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_HmacMac(benchmark::State& state) {
  crypto::SymmetricKey key = crypto::master_key_from_seed(7);
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_mac(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacMac)->Arg(64)->Arg(100)->Arg(256)->Arg(1024)->Arg(4096);

// One MAC the way a replica computes it: through the provider, whose
// per-thread cache already holds the pair's midstates after the first call.
void BM_ProviderMac(benchmark::State& state) {
  auto crypto = crypto::make_real_crypto(7);
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto->mac(0, 1, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ProviderMac)->Arg(100)->Arg(1024);

void BM_AuthenticatorBuild3(benchmark::State& state) {
  auto crypto = crypto::make_real_crypto(7);
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Authenticator::build(*crypto, 0, {1, 2, 3}, data));
  }
}
BENCHMARK(BM_AuthenticatorBuild3)->Arg(100)->Arg(1024);

void BM_AuthenticatorVerify(benchmark::State& state) {
  auto crypto = crypto::make_real_crypto(7);
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  auto auth = crypto::Authenticator::build(*crypto, 0, {1, 2, 3}, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth.verify(*crypto, 0, 2, data));
  }
}
BENCHMARK(BM_AuthenticatorVerify)->Arg(100)->Arg(1024);

void BM_KeyStoreDerivation(benchmark::State& state) {
  crypto::KeyStore ks(crypto::master_key_from_seed(7));
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ks.key_for(0, 1000 + (i++ % 1024)));
  }
}
BENCHMARK(BM_KeyStoreDerivation);

void BM_BatchDigest(benchmark::State& state) {
  auto crypto = crypto::make_real_crypto(7);
  std::vector<protocol::Request> batch;
  for (int i = 0; i < state.range(0); ++i) {
    protocol::Request req;
    req.client = 1000 + static_cast<protocol::ClientId>(i % 16);
    req.id = static_cast<protocol::RequestId>(i);
    req.payload = Bytes(64, Byte{0x11});
    batch.push_back(std::move(req));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::batch_digest(*crypto, batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BatchDigest)->Arg(1)->Arg(20)->Arg(200);

void BM_NullCryptoDigest(benchmark::State& state) {
  auto crypto = crypto::make_null_crypto();
  Bytes data(256, Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto->digest(data));
  }
}
BENCHMARK(BM_NullCryptoDigest);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("sha256_compress",
                              crypto::detail::active_compress_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
