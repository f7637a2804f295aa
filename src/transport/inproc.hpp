// In-process transport: nodes within one process exchange frames through
// frame sinks. Used by integration tests, examples and the threaded
// runtime when a whole cluster is hosted in a single process.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "common/metrics.hpp"
#include "common/threading.hpp"
#include "transport/transport.hpp"

namespace copbft::transport {

class InprocNetwork;

/// Per-node endpoint of an InprocNetwork.
class InprocTransport final : public Transport {
 public:
  InprocTransport(InprocNetwork& network, crypto::KeyNodeId self)
      : network_(network), self_(self) {}

  void register_sink(LaneId lane, std::shared_ptr<FrameSink> sink) override;
  bool send(crypto::KeyNodeId to, LaneId lane, Bytes frame) override;
  void shutdown() override;

  crypto::KeyNodeId self() const { return self_; }

 private:
  InprocNetwork& network_;
  crypto::KeyNodeId self_;
};

/// The shared fabric: routes frames to the destination node's lane sink.
/// Optionally drops frames via a fault-injection hook (tests).
class InprocNetwork {
 public:
  /// Creates (or returns) the endpoint for `node`.
  InprocTransport& endpoint(crypto::KeyNodeId node);

  /// Fault injection: frames for which the filter returns false are
  /// silently dropped (as a lossy network would).
  using DeliverFilter = std::function<bool(
      crypto::KeyNodeId from, crypto::KeyNodeId to, LaneId lane)>;
  void set_filter(DeliverFilter filter) {
    MutexLock lock(mutex_);
    filter_ = std::move(filter);
  }

  void register_sink(crypto::KeyNodeId node, LaneId lane,
                     std::shared_ptr<FrameSink> sink);
  bool send(crypto::KeyNodeId from, crypto::KeyNodeId to, LaneId lane,
            Bytes frame);
  void shutdown_node(crypto::KeyNodeId node);

 private:
  struct LaneCounters {
    metrics::Counter& frames;
    metrics::Counter& bytes;
  };

  Mutex mutex_;
  std::map<crypto::KeyNodeId, std::unique_ptr<InprocTransport>> endpoints_
      COP_GUARDED_BY(mutex_);
  std::map<std::pair<crypto::KeyNodeId, LaneId>, std::shared_ptr<FrameSink>>
      sinks_ COP_GUARDED_BY(mutex_);
  /// Per-lane traffic counters, bound lazily on first send.
  std::map<LaneId, std::unique_ptr<LaneCounters>> lane_counters_
      COP_GUARDED_BY(mutex_);
  DeliverFilter filter_ COP_GUARDED_BY(mutex_);
};

}  // namespace copbft::transport
