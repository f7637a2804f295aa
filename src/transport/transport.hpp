// Transport abstraction.
//
// A transport moves opaque frames between nodes. Frames are addressed by
// (node, lane): lanes model the *private connections* of COP pillars
// (paper §4.2.3) — pillar p of replica A talks to pillar p of replica B on
// lane p, and each lane can be backed by its own socket / NIC adapter.
// Delivery is push-based: receivers register one sink per lane.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "common/queue.hpp"
#include "crypto/key_store.hpp"

namespace copbft::transport {

class EventLoop;
using LaneId = std::uint32_t;

struct ReceivedFrame {
  crypto::KeyNodeId from = 0;
  LaneId lane = 0;
  Bytes bytes;
};

/// Outcome of a non-blocking delivery attempt (admission control).
enum class Admit : std::uint8_t {
  kAdmitted,  ///< the sink took the frame
  kBusy,      ///< the sink is full right now; retry, queue or shed
  kClosed,    ///< the sink shut down; the connection should close
};

/// Destination of received frames. Implementations are thread-safe;
/// deliver() may block for backpressure and returns false once closed.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual bool deliver(ReceivedFrame frame) = 0;
  virtual void close() = 0;

  /// Non-blocking admission used by event-driven transports: an event-loop
  /// thread multiplexes thousands of connections and must never park on
  /// one sink's backpressure. On kBusy/kClosed `frame` is left intact so
  /// the caller can queue it with a deadline or shed it.
  virtual Admit try_deliver(ReceivedFrame& frame) = 0;
};

/// FrameSink backed by a bounded queue; the default receiving end for
/// clients and tests.
class Inbox final : public FrameSink {
 public:
  explicit Inbox(std::size_t capacity = 4096) : queue_(capacity) {}

  bool deliver(ReceivedFrame frame) override {
    return queue_.push(std::move(frame));
  }
  Admit try_deliver(ReceivedFrame& frame) override {
    if (queue_.try_push_ref(frame)) return Admit::kAdmitted;
    return queue_.closed() ? Admit::kClosed : Admit::kBusy;
  }
  void close() override { queue_.close(); }

  BoundedQueue<ReceivedFrame>& queue() { return queue_; }

 private:
  BoundedQueue<ReceivedFrame> queue_;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers the receiving sink for `lane`. Must be called before frames
  /// for that lane arrive; one sink may serve several lanes.
  virtual void register_sink(LaneId lane, std::shared_ptr<FrameSink> sink) = 0;

  /// Sends a frame to `to` on `lane`. Returns false if the peer is
  /// unreachable or the transport is shut down. Per (sender, lane) FIFO
  /// order is preserved; no ordering holds across lanes, which is exactly
  /// what lets lanes proceed independently (§4.2.3).
  virtual bool send(crypto::KeyNodeId to, LaneId lane, Bytes frame) = 0;

  /// Stops background activity and closes registered sinks.
  virtual void shutdown() = 0;

  /// Hands the event loop that serves `lane` to a caller that drives it
  /// from its own thread (EventLoop::round) until EventLoop::release().
  /// Null means there is no loop to drive: the transport has none, or
  /// another caller already drives the one that serves `lane`.
  virtual std::shared_ptr<EventLoop> claim_lane(LaneId /*lane*/) {
    return nullptr;
  }
};

}  // namespace copbft::transport
