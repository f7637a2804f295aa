#include "transport/inproc.hpp"

#include "common/metrics.hpp"

namespace copbft::transport {

void InprocTransport::register_sink(LaneId lane,
                                    std::shared_ptr<FrameSink> sink) {
  network_.register_sink(self_, lane, std::move(sink));
}

bool InprocTransport::send(crypto::KeyNodeId to, LaneId lane, Bytes frame) {
  return network_.send(self_, to, lane, std::move(frame));
}

void InprocTransport::shutdown() { network_.shutdown_node(self_); }

InprocTransport& InprocNetwork::endpoint(crypto::KeyNodeId node) {
  MutexLock lock(mutex_);
  auto& slot = endpoints_[node];
  if (!slot) slot = std::make_unique<InprocTransport>(*this, node);
  return *slot;
}

void InprocNetwork::register_sink(crypto::KeyNodeId node, LaneId lane,
                                  std::shared_ptr<FrameSink> sink) {
  MutexLock lock(mutex_);
  sinks_[{node, lane}] = std::move(sink);
}

bool InprocNetwork::send(crypto::KeyNodeId from, crypto::KeyNodeId to,
                         LaneId lane, Bytes frame) {
  std::shared_ptr<FrameSink> sink;
  LaneCounters* counters = nullptr;
  {
    MutexLock lock(mutex_);
    if (filter_ && !filter_(from, to, lane)) return true;
    auto it = sinks_.find({to, lane});
    if (it == sinks_.end()) return false;
    sink = it->second;
    auto& slot = lane_counters_[lane];
    if (!slot) {
      auto& registry = metrics::MetricsRegistry::global();
      std::string prefix = "inproc.lane" + std::to_string(lane) + ".";
      slot = std::make_unique<LaneCounters>(
          LaneCounters{registry.counter(prefix + "frames"),
                       registry.counter(prefix + "bytes")});
    }
    counters = slot.get();
  }
  counters->frames.add();
  counters->bytes.add(frame.size());
  // Blocking deliver outside the registry lock: backpressure without
  // serializing unrelated senders.
  return sink->deliver(ReceivedFrame{from, lane, std::move(frame)});
}

void InprocNetwork::shutdown_node(crypto::KeyNodeId node) {
  MutexLock lock(mutex_);
  for (auto& [key, sink] : sinks_)
    if (key.first == node && sink) sink->close();
}

}  // namespace copbft::transport
