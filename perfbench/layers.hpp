// Timing decorators for the traced run. They wrap the seams a replica is
// built from — crypto::CryptoProvider, app::Service, transport::Transport
// and the FrameSinks registered on it — so every layer is measured from
// outside src/.
//
// Each thread accumulates into its own slot (single-writer relaxed
// atomics: a plain load and store, no locked read-modify-write), tagged
// with the role its thread name gives it; collect_layers() sums the slots per role
// at the window edges. Spans nest: time a span spends inside another one on
// the same thread (a KvStore put hashing its entries inside execute) counts
// for both layers, and only outermost spans count towards `top_ns`, so a
// role's self time is its thread CPU minus `top_ns`.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "app/service.hpp"
#include "crypto/provider.hpp"
#include "stats.hpp"
#include "transport/transport.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kMac,          ///< CryptoProvider::mac and verify_mac
  kDigest,       ///< CryptoProvider::digest
  kExecute,      ///< Service::execute
  kPreValidate,  ///< Service::pre_validate
  kPostProcess,  ///< Service::post_process
  kSnapshot,     ///< Service::snapshot
  kStateDigest,  ///< Service::state_digest
  kSend,         ///< Transport::send
  kSink,         ///< FrameSink::deliver and try_deliver
};
constexpr std::size_t kLayers = 9;

struct LayerTotals {
  std::array<std::uint64_t, kLayers> calls{};
  std::array<std::uint64_t, kLayers> ns{};
  std::array<std::uint64_t, kLayers> bytes{};
  /// Time in outermost spans: the part of the role's CPU spent in layers.
  std::uint64_t top_ns = 0;
};

/// Sums of every thread slot so far, per role.
std::array<LayerTotals, kRoles> collect_layers();

class TimedCrypto final : public copbft::crypto::CryptoProvider {
 public:
  explicit TimedCrypto(const copbft::crypto::CryptoProvider& inner)
      : inner_(inner) {}

  copbft::crypto::Digest digest(copbft::ByteSpan data) const override;
  copbft::crypto::Mac mac(copbft::crypto::KeyNodeId sender,
                          copbft::crypto::KeyNodeId receiver,
                          copbft::ByteSpan data) const override;
  bool verify_mac(copbft::crypto::KeyNodeId sender,
                  copbft::crypto::KeyNodeId receiver, copbft::ByteSpan data,
                  const copbft::crypto::Mac& candidate) const override;

 private:
  const copbft::crypto::CryptoProvider& inner_;
};

class TimedService final : public copbft::app::Service {
 public:
  explicit TimedService(std::unique_ptr<copbft::app::Service> inner)
      : inner_(std::move(inner)) {}

  copbft::Bytes execute(const copbft::protocol::Request& request) override;
  copbft::app::AccessClass classify(
      const copbft::protocol::Request& request) const override {
    return inner_->classify(request);
  }
  copbft::crypto::Digest state_digest() const override;
  bool pre_validate(const copbft::protocol::Request& request) override;
  copbft::Bytes post_process(const copbft::protocol::Request& request,
                             copbft::Bytes result) override;
  copbft::Bytes snapshot() const override;
  bool restore(copbft::ByteSpan snapshot,
               const copbft::crypto::Digest& expect) override {
    return inner_->restore(snapshot, expect);
  }

 private:
  std::unique_ptr<copbft::app::Service> inner_;
};

/// Times sends and wraps every registered sink in a timed one.
class TimedTransport final : public copbft::transport::Transport {
 public:
  explicit TimedTransport(copbft::transport::Transport& inner)
      : inner_(inner) {}

  void register_sink(copbft::transport::LaneId lane,
                     std::shared_ptr<copbft::transport::FrameSink> sink)
      override;
  bool send(copbft::crypto::KeyNodeId to, copbft::transport::LaneId lane,
            copbft::Bytes frame) override;
  void shutdown() override { inner_.shutdown(); }

 private:
  copbft::transport::Transport& inner_;
};

}  // namespace perfbench
