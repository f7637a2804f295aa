// Deterministic in-memory harness for a group of PbftCores.
//
// Plays the role of network + hosts for one pillar group (one sequence
// slice across all replicas): effects are routed through an in-memory
// message pool that tests can reorder, duplicate, drop or delay; delivery
// and checkpoint events are recorded per replica. Time is virtual.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "crypto/provider.hpp"
#include "protocol/pbft_core.hpp"

namespace copbft::test {

using namespace copbft::protocol;

struct DeliveredBatch {
  SeqNum seq;
  ViewId view;
  std::vector<Request> requests;
};

class PillarGroupHarness {
 public:
  struct Options {
    ProtocolConfig config;
    SeqSlice slice{0, 1};
    std::uint64_t seed = 1;
    bool shuffle = false;      ///< random interleaving of in-flight messages
    double duplicate_p = 0.0;  ///< probability of duplicating a message
    /// drop filter: return true to drop (from, to, msg)
    std::function<bool(ReplicaId, ReplicaId, const Message&)> drop = nullptr;
    /// act as execution stage: trigger checkpoints at interval boundaries
    bool auto_checkpoint = true;
  };

  explicit PillarGroupHarness(Options options)
      : options_(std::move(options)),
        crypto_(crypto::make_null_crypto()),
        rng_(options_.seed) {
    options_.config.validate();
    for (ReplicaId r = 0; r < options_.config.num_replicas; ++r) {
      verifiers_.push_back(std::make_unique<AcceptAllVerifier>());
      cores_.push_back(std::make_unique<PbftCore>(
          options_.config, r, options_.slice, *verifiers_.back(), *crypto_));
      delivered_.emplace_back();
      stable_.emplace_back();
      exec_next_.push_back(options_.slice.offset == 0
                               ? options_.slice.at(1)
                               : options_.slice.at(0));
    }
  }

  PbftCore& core(ReplicaId r) { return *cores_[r]; }
  std::uint64_t now() const { return now_us_; }
  void advance_time(std::uint64_t us) { now_us_ += us; }

  /// Submits a client request to a subset of replicas (default: all, as
  /// clients broadcast their requests).
  void client_request(ClientId client, RequestId id, Bytes payload,
                      std::vector<ReplicaId> to = {}) {
    Request req{client, id, 0, std::move(payload), {}};
    if (to.empty())
      for (ReplicaId r = 0; r < num_replicas(); ++r) to.push_back(r);
    for (ReplicaId r : to) {
      cores_[r]->on_request(req, now_us_, /*verified=*/true);
      pump(r);
    }
  }

  /// Delivers one in-flight message; false when the pool is empty.
  bool step() {
    if (pool_.empty()) return false;
    std::size_t pick =
        options_.shuffle ? static_cast<std::size_t>(rng_.below(pool_.size()))
                         : 0;
    Envelope env = std::move(pool_[pick]);
    pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(pick));

    IncomingMessage im;
    im.msg = env.msg;
    cores_[env.to]->on_message(std::move(im), now_us_);
    pump(env.to);
    return true;
  }

  /// Runs until no messages are in flight (or the step budget is hit).
  void run_until_quiescent(std::size_t max_steps = 2'000'000) {
    std::size_t steps = 0;
    while (step()) {
      if (++steps > max_steps) throw std::runtime_error("harness stuck");
    }
  }

  /// Ticks every core's timeout logic at the current virtual time.
  void tick_all() {
    for (ReplicaId r = 0; r < num_replicas(); ++r) {
      cores_[r]->tick(now_us_);
      pump(r);
    }
  }

  void fill_gap(ReplicaId r, SeqNum upto) {
    cores_[r]->fill_gap_upto(upto, now_us_);
    pump(r);
  }

  /// Committed instances per replica, in arrival (not sequence) order.
  const std::vector<DeliveredBatch>& delivered(ReplicaId r) const {
    return delivered_[r];
  }

  /// Delivered batches of replica r sorted by sequence number.
  std::vector<DeliveredBatch> delivered_sorted(ReplicaId r) const {
    auto out = delivered_[r];
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.seq < b.seq; });
    return out;
  }

  const std::vector<SeqNum>& stable_checkpoints(ReplicaId r) const {
    return stable_[r];
  }

  std::uint32_t num_replicas() const { return options_.config.num_replicas; }
  std::size_t in_flight() const { return pool_.size(); }

  const crypto::CryptoProvider& crypto() const { return *crypto_; }

 private:
  struct Envelope {
    ReplicaId to;
    Message msg;
  };

  void enqueue(ReplicaId from, ReplicaId to, const Message& msg) {
    if (options_.drop && options_.drop(from, to, msg)) return;
    pool_.push_back(Envelope{to, msg});
    if (options_.duplicate_p > 0 && rng_.chance(options_.duplicate_p))
      pool_.push_back(Envelope{to, msg});
  }

  // Drains effects of core r, acting as network and execution stage.
  void pump(ReplicaId r) {
    for (Effect& effect : cores_[r]->take_effects()) {
      if (auto* bc = std::get_if<Broadcast>(&effect)) {
        for (ReplicaId to = 0; to < num_replicas(); ++to)
          if (to != r) enqueue(r, to, bc->msg);
      } else if (auto* st = std::get_if<SendTo>(&effect)) {
        enqueue(r, st->to, st->msg);
      } else if (auto* del = std::get_if<Deliver>(&effect)) {
        delivered_[r].push_back(
            DeliveredBatch{del->seq, del->view, *del->requests});
        on_executed(r);
      } else if (auto* cs = std::get_if<CheckpointStable>(&effect)) {
        stable_[r].push_back(cs->seq);
      }
    }
  }

  // Minimal execution stage: advance the per-replica contiguous frontier
  // and trigger checkpoints at interval boundaries.
  void on_executed(ReplicaId r) {
    if (!options_.auto_checkpoint) return;
    bool advanced = true;
    while (advanced) {
      advanced = false;
      for (const auto& batch : delivered_[r]) {
        if (batch.seq == exec_next_[r]) {
          SeqNum seq = batch.seq;
          exec_next_[r] = seq + options_.slice.stride;
          advanced = true;
          if (seq % options_.config.checkpoint_interval == 0) {
            crypto::Digest digest;
            digest.bytes[0] = static_cast<Byte>(seq);
            digest.bytes[1] = static_cast<Byte>(seq >> 8);
            digest.bytes[2] = static_cast<Byte>(seq >> 16);
            cores_[r]->start_checkpoint(seq, digest, now_us_);
            pump(r);
          }
        }
      }
    }
  }

  Options options_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  Rng rng_;
  std::vector<std::unique_ptr<AcceptAllVerifier>> verifiers_;
  std::vector<std::unique_ptr<PbftCore>> cores_;
  std::deque<Envelope> pool_;
  std::vector<std::vector<DeliveredBatch>> delivered_;
  std::vector<std::vector<SeqNum>> stable_;
  std::vector<SeqNum> exec_next_;
  std::uint64_t now_us_ = 0;
};

}  // namespace copbft::test
