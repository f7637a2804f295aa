// Events flowing between the threads of a replica.
#pragma once

#include <functional>
#include <memory>
#include <variant>

#include "protocol/messages.hpp"
#include "protocol/verifier.hpp"
#include "transport/transport.hpp"

namespace copbft::core {

// ---- pillar bookkeeping commands ------------------------------------------
//
// With pre-execution offload (paper §4.3.1) these are no longer pushed by
// the execution stage: each pillar picks up its own share — checkpoint
// rounds it owns, gap fills for its slice — via
// ExecutionStage::poll_pillar() and feeds them to its handle_command.

/// Execution crossed a checkpoint boundary owned by this logic unit; run
/// the checkpoint agreement (paper §4.2.2).
struct StartCheckpoint {
  protocol::SeqNum seq = 0;
  crypto::Digest digest;
};

/// A sibling pillar's checkpoint agreement became stable; truncate logs
/// and slide the window.
struct NoteStable {
  protocol::SeqNum seq = 0;
  crypto::Digest digest;
};

/// The total order is stalled waiting for sequence numbers up to `seq`;
/// fill this slice's share with pending requests or no-ops (paper §4.2.1).
/// Self-addressed: each pillar times its own stall and requests fills for
/// its own slice only. `frontier` is the execution stage's next needed
/// sequence number (0 = unknown) — the core uses it to detect that the
/// needed certificates were already truncated cluster-wide
/// (state-transfer trigger).
struct FillGap {
  protocol::SeqNum seq = 0;
  protocol::SeqNum frontier = 0;
};

/// A checkpoint install slid the window; (re-)fetch the proposals for the
/// slice's still-open sequence numbers up to `upto`.
struct FetchMissing {
  protocol::SeqNum upto = 0;
};

/// Intra-replica work a pillar drains with priority over network frames.
using PillarCommand =
    std::variant<StartCheckpoint, NoteStable, FillGap, FetchMissing>;

/// A message that an upstream stage already decoded (and possibly
/// verified): the ingress stage of TOP, the verification workers of the
/// SMaRt baseline. COP pillars decode in place and never use this.
struct PreparedInput {
  protocol::IncomingMessage im;
};

/// What a protocol-logic thread's main queue carries: network frames and
/// pre-processed messages. Commands travel on their own channel.
using PillarEvent = std::variant<transport::ReceivedFrame, PreparedInput>;

// ---- protocol-logic -> execution-stage --------------------------------

/// Outcome of a completed consensus instance, possibly out of order.
struct CommittedBatch {
  protocol::SeqNum seq = 0;
  protocol::ViewId view = 0;
  std::shared_ptr<const std::vector<protocol::Request>> requests;
  /// Which pillar/logic unit completed it (slice admission, trace stamps).
  std::uint32_t pillar = 0;
  /// The emitting core's stable checkpoint at delivery time — the
  /// authority under which `seq` was inside the watermark window. The
  /// execution stage asserts the paper's drift bound against this (its
  /// own frontier may legitimately lag a stability the peers voted).
  protocol::SeqNum stable_basis = 0;
};

/// Install a fetched stable checkpoint into the execution stage: restore
/// the service, rebuild the exactly-once bookkeeping, drop the reorder
/// buffer at or below `seq` and advance the frontier to seq+1.
struct InstallState {
  protocol::SeqNum seq = 0;
  /// Cluster-agreed composite checkpoint digest the artifact must match.
  crypto::Digest digest;
  /// Encoded CheckpointArtifact (client table + service snapshot).
  Bytes artifact;
  /// Completion callback, run on the stage thread (false = rejected).
  std::function<void(bool)> done;
};

}  // namespace copbft::core
