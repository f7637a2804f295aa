// Test double for transport::Transport: records every sent frame.
#pragma once

#include <mutex>
#include <set>
#include <vector>

#include "transport/transport.hpp"

namespace copbft::test {

class FakeTransport final : public transport::Transport {
 public:
  struct Sent {
    crypto::KeyNodeId to;
    transport::LaneId lane;
    Bytes frame;
  };

  void register_sink(transport::LaneId lane,
                     std::shared_ptr<transport::FrameSink> sink) override {
    std::lock_guard lock(mutex_);
    sinks_.emplace_back(lane, std::move(sink));
  }

  bool send(crypto::KeyNodeId to, transport::LaneId lane,
            Bytes frame) override {
    std::lock_guard lock(mutex_);
    if (refused_.count(to)) return false;
    sent_.push_back({to, lane, std::move(frame)});
    return true;
  }

  /// Every later send to `to` fails and records nothing, as a transport
  /// with no route to the node would.
  void refuse(crypto::KeyNodeId to) {
    std::lock_guard lock(mutex_);
    refused_.insert(to);
  }

  void shutdown() override {}

  std::vector<Sent> take_sent() {
    std::lock_guard lock(mutex_);
    std::vector<Sent> out;
    out.swap(sent_);
    return out;
  }

  std::size_t sent_count() const {
    std::lock_guard lock(mutex_);
    return sent_.size();
  }

  /// The sink last registered for `lane`, or nullptr.
  std::shared_ptr<transport::FrameSink> sink(transport::LaneId lane) const {
    std::lock_guard lock(mutex_);
    for (auto it = sinks_.rbegin(); it != sinks_.rend(); ++it)
      if (it->first == lane) return it->second;
    return nullptr;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Sent> sent_;
  std::set<crypto::KeyNodeId> refused_;
  std::vector<std::pair<transport::LaneId,
                        std::shared_ptr<transport::FrameSink>>>
      sinks_;
};

}  // namespace copbft::test
