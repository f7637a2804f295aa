// Byzantine adversary configuration for fault-campaign scenarios.
//
// A single replica of the group can be configured to misbehave in
// controlled, protocol-aware ways. The hooks live inside PbftCore — the
// one place every host (COP pillar, TOP/SMaRt logic stage, the simulator)
// funnels its protocol traffic through — so the same adversary drives both
// the deterministic scenario engine (sim/scenario.hpp) and threaded
// cluster tests. Correct replicas never read this struct; the adversary
// model is "one compromised replica runs modified software", not "the
// network rewrites messages".
//
// Supported behaviours (paper-adjacent attacks on parallelized consensus;
// cf. FnF-BFT's Byzantine-leader analysis):
//   * equivocation — as proposer, send conflicting pre-prepares for the
//     same (view, seq) to disjoint peer sets: the real batch to one half,
//     a well-formed no-op batch to the other. Both variants carry
//     internally consistent digests, so followers accept them and the
//     conflict surfaces only at the vote/commit layer.
//   * selective omission — drop own PREPARE/COMMIT votes addressed to a
//     chosen set of peers (beyond the benign kOmitOne reply policy).
//
// Both behaviours can be time-bounded so campaigns can measure recovery
// after the fault clears.
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/types.hpp"

namespace copbft::protocol {

struct AdversaryConfig {
  static constexpr ReplicaId kNoAdversary = UINT32_MAX;

  /// The compromised replica; kNoAdversary disables every behaviour.
  ReplicaId replica = kNoAdversary;

  /// Equivocate own proposals (conflicting pre-prepares, disjoint halves).
  bool equivocate = false;

  /// Omit own Prepare/Commit votes to these peers.
  std::vector<ReplicaId> omit_votes_to;

  /// End of the active interval in host/virtual microseconds; 0 means
  /// "for the whole run".
  std::uint64_t until_us = 0;

  bool applies_to(ReplicaId self, std::uint64_t now_us) const {
    return replica == self && (until_us == 0 || now_us < until_us);
  }

  bool omits_to(ReplicaId peer) const {
    for (ReplicaId r : omit_votes_to)
      if (r == peer) return true;
    return false;
  }
};

}  // namespace copbft::protocol
