// Static configuration of the replication group and protocol parameters.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "protocol/adversary.hpp"
#include "protocol/types.hpp"

namespace copbft::protocol {

struct ProtocolConfig {
  /// Number of replicas N (>= 3f + 1).
  std::uint32_t num_replicas = 4;
  /// Tolerated Byzantine faults f.
  std::uint32_t max_faulty = 1;

  /// A checkpoint is taken every this many sequence numbers (paper: 1000).
  SeqNum checkpoint_interval = 1000;
  /// Watermark window: instances may run in (stable, stable + window].
  /// Also bounds how far pillars may drift apart (paper §4.2.2).
  SeqNum window = 2000;

  /// Maximum requests per consensus instance; 1 turns batching off (the
  /// paper evaluates both settings).
  std::uint32_t max_batch = 200;

  /// Maximum own proposals in flight (proposed, not yet committed).
  /// 0 = bounded only by the watermark window (multi-instance logic, as in
  /// COP/TOP); 1 = single-instance logic (the BFT-SMaRt baseline, which
  /// can only scale via batching, paper §3.2).
  std::uint32_t max_active_proposals = 0;

  LeaderScheme leader_scheme = LeaderScheme::kFixed;
  /// Number of pillars NP (1 for TOP/SMaRt); needed by the rotating
  /// leader scheme so rotation and partitioning stay coordinated.
  std::uint32_t num_pillars = 1;

  /// Follower suspicion timeout before initiating a view change, in
  /// microseconds of host time (real or simulated).
  std::uint64_t view_change_timeout_us = 2'000'000;

  /// Stalled instances retransmit this replica's protocol messages (and
  /// fetch missed proposals) after this long without progress; liveness
  /// under message loss. 0 disables retransmission.
  std::uint64_t retransmit_interval_us = 200'000;

  /// Byzantine behaviour injection for fault campaigns (scenario engine,
  /// adversarial tests). Inert by default; only the replica named in it
  /// acts on it. See adversary.hpp.
  AdversaryConfig adversary;

  std::uint32_t quorum() const { return 2 * max_faulty + 1; }
  std::uint32_t weak_quorum() const { return max_faulty + 1; }

  void validate() const {
    if (num_replicas < 3 * max_faulty + 1)
      throw std::invalid_argument("need N >= 3f + 1 replicas");
    if (num_replicas > ReplicaSet::kCapacity)
      throw std::invalid_argument(
          "at most 64 replicas (vote sets are bitmasks)");
    if (checkpoint_interval == 0 || window < checkpoint_interval)
      throw std::invalid_argument("window must cover >= 1 checkpoint interval");
    if (max_batch == 0) throw std::invalid_argument("max_batch must be > 0");
    if (num_pillars == 0) throw std::invalid_argument("need >= 1 pillar");
  }

  /// Leader replica for instance `seq` in `view` (paper §4.3.2).
  ReplicaId leader_for(ViewId view, SeqNum seq) const {
    switch (leader_scheme) {
      case LeaderScheme::kFixed:
        return static_cast<ReplicaId>(view % num_replicas);
      case LeaderScheme::kRotating:
        return static_cast<ReplicaId>((seq / num_pillars + view) %
                                      num_replicas);
    }
    return 0;
  }
};

}  // namespace copbft::protocol
