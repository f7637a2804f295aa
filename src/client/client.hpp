// Client library: asynchronous invocation with a bounded window, reply
// quorum matching, MAC verification and retransmission.
//
// Matches the paper's load-generation model (§5, "The Setup"): clients
// issue a limited number of asynchronous requests and measure the time
// from sending a request to obtaining a *stable* result, i.e. f+1 matching
// replies from distinct replicas.
#pragma once

#include <functional>
#include <future>
#include <map>
#include <unordered_map>

#include "common/histogram.hpp"
#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "crypto/provider.hpp"
#include "protocol/messages.hpp"
#include "transport/transport.hpp"

namespace copbft::client {

struct ClientConfig {
  protocol::ClientId id = protocol::kClientIdBase;
  std::uint32_t num_replicas = 4;
  std::uint32_t max_faulty = 1;
  /// Pillars per replica; this client's requests travel on lane id % NP.
  std::uint32_t num_pillars = 1;
  /// Maximum outstanding asynchronous requests.
  std::uint32_t window = 16;
  /// Base retransmission timeout; doubles per retransmission of the same
  /// request (with jitter) up to a cap of 8 s.
  std::uint64_t retransmit_timeout_us = 500'000;
};

/// Retransmission delay for the attempt-th re-send of one request:
/// exponential (base << attempt) capped at `cap`, with +-12.5% uniform
/// jitter so concurrently-pending requests do not re-fire in lockstep —
/// a fixed rearm turns one hiccup into synchronized retransmission storms
/// that arrive together at the replicas forever after.
std::uint64_t retransmit_backoff_us(std::uint64_t base, std::uint64_t cap,
                                    std::uint32_t attempt, Rng& rng);

class Client {
 public:
  /// Called on completion with the stable result and the measured latency.
  using Callback = std::function<void(Bytes result, std::uint64_t latency_us)>;

  Client(ClientConfig config, const crypto::CryptoProvider& crypto,
         transport::Transport& transport);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void start();
  void stop();

  /// Asynchronous invocation; blocks only while the window is full.
  /// Returns false after stop().
  bool invoke_async(Bytes payload, std::uint8_t flags, Callback done);

  /// Synchronous invocation; nullopt if the client was stopped.
  std::optional<Bytes> invoke(Bytes payload, std::uint8_t flags = 0);

  /// Blocks until every outstanding request completed.
  void drain();

  /// Snapshot accessors: safe to call from any thread at any time.
  Histogram latencies() const {
    MutexLock lock(mutex_);
    return latencies_;
  }
  std::uint64_t completed() const {
    MutexLock lock(mutex_);
    return completed_;
  }
  std::uint64_t retransmissions() const {
    MutexLock lock(mutex_);
    return retransmissions_;
  }
  /// Retransmission deadlines of the currently pending requests, in
  /// microsecond timestamps (unordered). Test/diagnostic hook for
  /// observing backoff de-synchronization.
  std::vector<std::uint64_t> pending_deadlines() const {
    MutexLock lock(mutex_);
    std::vector<std::uint64_t> out;
    out.reserve(pending_.size());
    for (const auto& [id, p] : pending_) out.push_back(p.deadline_us);
    return out;
  }
  protocol::ClientId id() const { return config_.id; }

 private:
  struct Pending {
    Bytes frame;  ///< sealed request frame, kept for retransmission
    Callback done;
    std::uint64_t sent_at_us = 0;
    std::uint64_t deadline_us = 0;
    std::uint32_t attempts = 0;  ///< retransmissions so far (backoff exponent)
    /// votes: digest of result -> replicas that returned it
    std::map<crypto::Digest, std::uint32_t> votes;
    std::uint32_t voters_seen = 0;  ///< bitmask of replica ids (< 32)
    Bytes result;                   ///< first result matching the quorum digest
    std::map<crypto::Digest, Bytes> results;
  };

  void run();
  void handle_reply(transport::ReceivedFrame& frame);
  void retransmit_due(std::uint64_t now);
  Bytes seal_request(protocol::Request& req);
  transport::LaneId lane() const { return config_.id % config_.num_pillars; }

  const ClientConfig config_;
  const crypto::CryptoProvider& crypto_;
  transport::Transport& transport_;

  std::shared_ptr<transport::Inbox> inbox_;
  std::jthread thread_;

  mutable Mutex mutex_;
  Cv window_open_;
  std::unordered_map<protocol::RequestId, Pending> pending_
      COP_GUARDED_BY(mutex_);
  protocol::RequestId next_id_ COP_GUARDED_BY(mutex_) = 1;
  /// Completions whose user callback has not returned yet; drain() waits
  /// for these too so callers observe all effects of their callbacks.
  std::uint32_t callbacks_in_flight_ COP_GUARDED_BY(mutex_) = 0;
  bool stopped_ COP_GUARDED_BY(mutex_) = false;

  Histogram latencies_ COP_GUARDED_BY(mutex_);
  std::uint64_t completed_ COP_GUARDED_BY(mutex_) = 0;
  std::uint64_t retransmissions_ COP_GUARDED_BY(mutex_) = 0;
  /// Jitter source for retransmission backoff; deterministic per client.
  Rng backoff_rng_ COP_GUARDED_BY(mutex_);

  // Observability (shared across client instances; registered in ctor).
  metrics::Counter& m_sent_;
  metrics::Counter& m_retransmissions_;
  metrics::Counter& m_completed_;
  metrics::HistogramMetric& m_latency_us_;
};

}  // namespace copbft::client
