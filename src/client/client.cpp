#include "client/client.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "protocol/wire.hpp"

namespace copbft::client {
namespace {

// Cap of the per-request retransmission backoff.
constexpr std::uint64_t kRetransmitTimeoutMaxUs = 8'000'000;

}  // namespace

std::uint64_t retransmit_backoff_us(std::uint64_t base, std::uint64_t cap,
                                    std::uint32_t attempt, Rng& rng) {
  if (base == 0) base = 1;
  if (cap < base) cap = base;
  // base << attempt, saturating well before 64-bit overflow.
  std::uint64_t backoff = cap;
  if (attempt < 63 && (base >> (63 - attempt)) == 0) {
    backoff = std::min(cap, base << attempt);
  }
  // +-12.5% uniform jitter, never below 1us.
  const std::uint64_t spread = backoff / 8;
  const std::uint64_t lo = backoff - spread;
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t hi = (backoff > kMax - spread) ? kMax : backoff + spread;
  return std::max<std::uint64_t>(1, rng.between(lo, hi));
}

Client::Client(ClientConfig config, const crypto::CryptoProvider& crypto,
               transport::Transport& transport)
    : config_(config),
      crypto_(crypto),
      transport_(transport),
      backoff_rng_(0x9e3779b9u ^ config.id),
      m_sent_(metrics::MetricsRegistry::global().counter(
          "client.requests_sent")),
      m_retransmissions_(metrics::MetricsRegistry::global().counter(
          "client.retransmissions")),
      m_completed_(
          metrics::MetricsRegistry::global().counter("client.completed")),
      m_latency_us_(metrics::MetricsRegistry::global().histogram(
          "client.latency_us")) {
  inbox_ = std::make_shared<transport::Inbox>(4096);
  // Replies arrive on lane 0 (dedicated reply lane) but also, over the
  // event-loop transport, on the lane of the connection the client dialed
  // (replies ride back over the request connection); register both.
  transport_.register_sink(0, inbox_);
  if (lane() != 0) transport_.register_sink(lane(), inbox_);
}

Client::~Client() { stop(); }

void Client::start() {
  thread_ = named_thread("client-" + std::to_string(config_.id),
                         [this] { run(); });
}

void Client::stop() {
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  window_open_.notify_all();
  inbox_->close();
  if (thread_.joinable()) thread_.join();
}

Bytes Client::seal_request(protocol::Request& req) {
  std::vector<crypto::KeyNodeId> recipients;
  recipients.reserve(config_.num_replicas);
  for (std::uint32_t r = 0; r < config_.num_replicas; ++r)
    recipients.push_back(protocol::replica_node(r));

  Bytes body = protocol::request_authenticated_bytes(req);
  req.auth = crypto::Authenticator::build(
      crypto_, protocol::client_node(config_.id), recipients, ByteSpan{body});
  protocol::WireWriter w(body);
  w.authenticator(req.auth);
  return body;
}

bool Client::invoke_async(Bytes payload, std::uint8_t flags, Callback done) {
  protocol::RequestId id;
  Bytes frame;
  std::uint64_t now;
  {
    CvLock lock(mutex_);
    while (!stopped_ && pending_.size() >= config_.window)
      window_open_.wait(lock);
    if (stopped_) return false;

    id = next_id_++;
    protocol::Request req{config_.id, id, flags, std::move(payload), {}};
    frame = seal_request(req);
    now = now_us();

    Pending& p = pending_[id];
    p.frame = frame;
    p.done = std::move(done);
    p.sent_at_us = now;
    // Jitter the very first deadline too: requests issued together in one
    // window must not fall due together if the cluster stalls.
    p.deadline_us =
        now + retransmit_backoff_us(config_.retransmit_timeout_us,
                                    kRetransmitTimeoutMaxUs,
                                    /*attempt=*/0, backoff_rng_);
  }
  m_sent_.add();
  trace::point(trace::Point::kClientSend,
               static_cast<std::uint32_t>(config_.id), /*pillar=*/0, /*seq=*/0,
               /*view=*/0, config_.id, id);
  for (std::uint32_t r = 0; r < config_.num_replicas; ++r)
    transport_.send(protocol::replica_node(r), lane(), frame);
  return true;
}

std::optional<Bytes> Client::invoke(Bytes payload, std::uint8_t flags) {
  std::promise<Bytes> promise;
  auto future = promise.get_future();
  bool ok = invoke_async(std::move(payload), flags,
                         [&promise](Bytes result, std::uint64_t) {
                           promise.set_value(std::move(result));
                         });
  if (!ok) return std::nullopt;
  // stop() never abandons pending callbacks before the thread joined, but
  // guard against a stop racing the completion.
  if (future.wait_for(std::chrono::minutes(5)) != std::future_status::ready)
    return std::nullopt;
  return future.get();
}

void Client::drain() {
  CvLock lock(mutex_);
  while (!stopped_ && !(pending_.empty() && callbacks_in_flight_ == 0))
    window_open_.wait(lock);
}

void Client::run() {
  const auto poll = std::chrono::microseconds(10'000);
  while (true) {
    auto frame = inbox_->queue().pop_for(poll);
    if (!frame && inbox_->queue().closed()) break;
    if (frame) handle_reply(*frame);
    retransmit_due(now_us());
  }
  // Fail outstanding invocations so synchronous callers unblock.
  std::unordered_map<protocol::RequestId, Pending> orphans;
  {
    MutexLock lock(mutex_);
    orphans.swap(pending_);
  }
  for (auto& [id, p] : orphans)
    if (p.done) p.done({}, 0);
  window_open_.notify_all();
}

void Client::handle_reply(transport::ReceivedFrame& frame) {
  auto decoded = protocol::decode_message(frame.bytes);
  if (!decoded) return;
  auto* reply = std::get_if<protocol::Reply>(&decoded->msg);
  if (!reply || reply->client != config_.id ||
      reply->replica >= config_.num_replicas)
    return;

  // Authenticate the reply against the claimed replica.
  ByteSpan body{frame.bytes.data(), decoded->body_size};
  if (!reply->auth.verify(crypto_, protocol::replica_node(reply->replica),
                          protocol::client_node(config_.id), body))
    return;

  Callback done;
  Bytes result;
  std::uint64_t latency = 0;
  {
    MutexLock lock(mutex_);
    auto it = pending_.find(reply->id);
    if (it == pending_.end()) return;  // already stable or stale
    Pending& p = it->second;

    std::uint32_t bit = 1u << reply->replica;
    if (p.voters_seen & bit) return;  // duplicate vote
    p.voters_seen |= bit;

    crypto::Digest d = crypto_.digest(reply->result);
    std::uint32_t count = ++p.votes[d];
    p.results.try_emplace(d, reply->result);
    if (count < config_.max_faulty + 1) return;

    // Stable: f+1 matching replies.
    latency = now_us() - p.sent_at_us;
    result = std::move(p.results[d]);
    done = std::move(p.done);
    pending_.erase(it);
    latencies_.record(latency);
    ++completed_;
    if (done) ++callbacks_in_flight_;
  }
  m_completed_.add();
  m_latency_us_.record(latency);
  trace::point(trace::Point::kStableResult,
               static_cast<std::uint32_t>(config_.id), /*pillar=*/0, /*seq=*/0,
               /*view=*/0, config_.id, reply->id);
  window_open_.notify_all();
  if (done) {
    done(std::move(result), latency);
    {
      MutexLock lock(mutex_);
      --callbacks_in_flight_;
    }
    window_open_.notify_all();
  }
}

void Client::retransmit_due(std::uint64_t now) {
  std::vector<Bytes> frames;
  {
    MutexLock lock(mutex_);
    for (auto& [id, p] : pending_) {
      if (now >= p.deadline_us) {
        // Per-request capped exponential backoff with jitter. Rearming
        // every due request with the same fixed timeout would lock their
        // deadlines together: one stall and the whole window re-fires in
        // lockstep at every timeout forever.
        ++p.attempts;
        p.deadline_us =
            now + retransmit_backoff_us(config_.retransmit_timeout_us,
                                        kRetransmitTimeoutMaxUs, p.attempts,
                                        backoff_rng_);
        frames.push_back(p.frame);
        ++retransmissions_;
        m_retransmissions_.add();
        trace::point(trace::Point::kClientRetransmit,
                     static_cast<std::uint32_t>(config_.id), /*pillar=*/0,
                     /*seq=*/0, /*view=*/0, config_.id, id);
      }
    }
  }
  for (Bytes& frame : frames)
    for (std::uint32_t r = 0; r < config_.num_replicas; ++r)
      transport_.send(protocol::replica_node(r), lane(), frame);
}

}  // namespace copbft::client
