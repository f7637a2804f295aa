#include "layers.hpp"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

using copbft::Bytes;
using copbft::ByteSpan;
namespace crypto = copbft::crypto;
namespace transport = copbft::transport;

struct alignas(64) Slot {
  std::atomic<Role> role{Role::kOther};
  std::array<std::atomic<std::uint64_t>, kLayers> calls{};
  std::array<std::atomic<std::uint64_t>, kLayers> ns{};
  std::array<std::atomic<std::uint64_t>, kLayers> bytes{};
  std::atomic<std::uint64_t> top_ns{0};
};

// A replica cluster runs about 25 threads; the table is sized far above
// that so registration never has to share a slot between writers.
constexpr std::uint32_t kSlots = 256;
Slot g_slots[kSlots];
std::atomic<std::uint32_t> g_slots_used{0};

thread_local Slot* t_slot = nullptr;
thread_local std::uint32_t t_depth = 0;

Slot& this_slot() {
  if (t_slot) return *t_slot;
  const std::uint32_t index =
      g_slots_used.fetch_add(1, std::memory_order_relaxed);
  if (index >= kSlots) {
    std::fprintf(stderr, "perfbench: more than %u traced threads\n", kSlots);
    std::abort();
  }
  char name[32] = {};
  pthread_getname_np(pthread_self(), name, sizeof name);
  g_slots[index].role.store(role_of(name), std::memory_order_release);
  t_slot = &g_slots[index];
  return *t_slot;
}

/// Single-writer add: only the owning thread writes its slot.
void bump(std::atomic<std::uint64_t>& cell, std::uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

class Span {
 public:
  Span(Layer layer, std::size_t bytes)
      : slot_(this_slot()),
        layer_(static_cast<std::size_t>(layer)),
        bytes_(bytes),
        outermost_(t_depth++ == 0),
        start_(now_ns()) {}
  ~Span() {
    const std::uint64_t elapsed = now_ns() - start_;
    --t_depth;
    bump(slot_.calls[layer_], 1);
    bump(slot_.ns[layer_], elapsed);
    bump(slot_.bytes[layer_], bytes_);
    if (outermost_) bump(slot_.top_ns, elapsed);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Slot& slot_;
  const std::size_t layer_;
  const std::size_t bytes_;
  const bool outermost_;
  const std::uint64_t start_;
};

class TimedSink final : public transport::FrameSink {
 public:
  explicit TimedSink(std::shared_ptr<transport::FrameSink> inner)
      : inner_(std::move(inner)) {}

  bool deliver(transport::ReceivedFrame frame) override {
    Span span(Layer::kSink, frame.bytes.size());
    return inner_->deliver(std::move(frame));
  }
  transport::Admit try_deliver(transport::ReceivedFrame& frame) override {
    Span span(Layer::kSink, frame.bytes.size());
    return inner_->try_deliver(frame);
  }
  void close() override { inner_->close(); }

 private:
  const std::shared_ptr<transport::FrameSink> inner_;
};

}  // namespace

std::array<LayerTotals, kRoles> collect_layers() {
  std::array<LayerTotals, kRoles> out{};
  const std::uint32_t used =
      std::min(g_slots_used.load(std::memory_order_relaxed), kSlots);
  for (std::uint32_t i = 0; i < used; ++i) {
    const Slot& slot = g_slots[i];
    LayerTotals& totals = out[static_cast<std::size_t>(
        slot.role.load(std::memory_order_acquire))];
    for (std::size_t l = 0; l < kLayers; ++l) {
      totals.calls[l] += slot.calls[l].load(std::memory_order_relaxed);
      totals.ns[l] += slot.ns[l].load(std::memory_order_relaxed);
      totals.bytes[l] += slot.bytes[l].load(std::memory_order_relaxed);
    }
    totals.top_ns += slot.top_ns.load(std::memory_order_relaxed);
  }
  return out;
}

crypto::Digest TimedCrypto::digest(ByteSpan data) const {
  Span span(Layer::kDigest, data.size());
  return inner_.digest(data);
}

crypto::Mac TimedCrypto::mac(crypto::KeyNodeId sender,
                             crypto::KeyNodeId receiver,
                             ByteSpan data) const {
  Span span(Layer::kMac, data.size());
  return inner_.mac(sender, receiver, data);
}

bool TimedCrypto::verify_mac(crypto::KeyNodeId sender,
                             crypto::KeyNodeId receiver, ByteSpan data,
                             const crypto::Mac& candidate) const {
  Span span(Layer::kMac, data.size());
  return inner_.verify_mac(sender, receiver, data, candidate);
}

Bytes TimedService::execute(const copbft::protocol::Request& request) {
  Span span(Layer::kExecute, request.payload.size());
  return inner_->execute(request);
}

crypto::Digest TimedService::state_digest() const {
  Span span(Layer::kStateDigest, 0);
  return inner_->state_digest();
}

bool TimedService::pre_validate(const copbft::protocol::Request& request) {
  Span span(Layer::kPreValidate, request.payload.size());
  return inner_->pre_validate(request);
}

Bytes TimedService::post_process(const copbft::protocol::Request& request,
                                 Bytes result) {
  Span span(Layer::kPostProcess, result.size());
  return inner_->post_process(request, std::move(result));
}

Bytes TimedService::snapshot() const {
  Span span(Layer::kSnapshot, 0);
  return inner_->snapshot();
}

void TimedTransport::register_sink(transport::LaneId lane,
                                   std::shared_ptr<transport::FrameSink> sink) {
  inner_.register_sink(lane, std::make_shared<TimedSink>(std::move(sink)));
}

bool TimedTransport::send(crypto::KeyNodeId to, transport::LaneId lane,
                          Bytes frame) {
  Span span(Layer::kSend, frame.size());
  return inner_.send(to, lane, std::move(frame));
}

}  // namespace perfbench
