// Protocol messages (PBFT normal case, checkpointing, view change) and
// their canonical wire encoding.
//
// Authentication convention: every message is encoded as
//     [type tag | body | authenticator]
// and MACs/authenticators are computed over [type tag | body] — the
// "authenticated bytes". decode_message() reports where the authenticated
// prefix ends (body_size) so receivers can verify without re-encoding.
#pragma once

#include <initializer_list>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/authenticator.hpp"
#include "crypto/provider.hpp"
#include "protocol/types.hpp"

namespace copbft::protocol {

enum class MsgType : std::uint8_t {
  kRequest = 1,
  kPrePrepare = 2,
  kPrepare = 3,
  kCommit = 4,
  kCheckpoint = 5,
  kReply = 6,
  kViewChange = 7,
  kNewView = 8,
  kFetch = 9,
  kStateRequest = 10,
  kStateReply = 11,
};

/// Request flags.
constexpr std::uint8_t kFlagReadOnly = 0x01;

/// Client operation submitted for total ordering.
struct Request {
  ClientId client = 0;
  RequestId id = 0;
  std::uint8_t flags = 0;
  Bytes payload;
  /// Client MACs towards all replicas.
  crypto::Authenticator auth;

  std::uint64_t key() const { return request_key(client, id); }
};

/// The requests of one proposal, built once and then shared read-only: a
/// received PrePrepare's batch becomes its instance's and its Deliver's,
/// and a leader's instance and its outgoing PrePrepare hold one object.
/// Reads see a const vector (empty when none was set); assignment and
/// push_back replace it with a new one, so no holder sees a batch change.
class Batch {
 public:
  using Requests = std::vector<Request>;

  Batch() = default;
  Batch(Requests requests)
      : shared_(std::make_shared<const Requests>(std::move(requests))) {}
  Batch(std::initializer_list<Request> requests)
      : Batch(Requests(requests)) {}

  const Requests& get() const { return *shared(); }
  operator const Requests&() const { return get(); }
  /// The batch as the execution stage takes it; never null.
  const std::shared_ptr<const Requests>& shared() const {
    return shared_ ? shared_ : empty_shared();
  }

  std::size_t size() const { return get().size(); }
  bool empty() const { return get().empty(); }
  Requests::const_iterator begin() const { return get().begin(); }
  Requests::const_iterator end() const { return get().end(); }

  /// Copies the batch with `req` appended; for building test messages.
  void push_back(Request req) {
    Requests grown = get();
    grown.push_back(std::move(req));
    *this = Batch(std::move(grown));
  }

 private:
  static const std::shared_ptr<const Requests>& empty_shared();

  std::shared_ptr<const Requests> shared_;
};

/// Leader's proposal: assigns `seq` to a batch of requests. An empty batch
/// is a no-op instance (used to fill sequence-number gaps, paper §4.2.1).
struct PrePrepare {
  ViewId view = 0;
  SeqNum seq = 0;
  /// Digest over the canonical encoding of `requests`.
  crypto::Digest digest;
  Batch requests;
  crypto::Authenticator auth;
};

struct Prepare {
  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest digest;
  ReplicaId replica = 0;
  crypto::Authenticator auth;
};

struct Commit {
  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest digest;
  ReplicaId replica = 0;
  crypto::Authenticator auth;
};

/// Checkpoint vote: `digest` covers the service state after executing
/// everything up to and including `seq`.
struct CheckpointMsg {
  SeqNum seq = 0;
  crypto::Digest digest;
  ReplicaId replica = 0;
  crypto::Authenticator auth;
};

struct Reply {
  ViewId view = 0;
  ClientId client = 0;
  RequestId id = 0;
  ReplicaId replica = 0;
  Bytes result;
  crypto::Authenticator auth;
};

/// Certificate that an instance reached the prepared state; carried in
/// view-change messages so the new leader can re-propose it.
struct PreparedProof {
  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest digest;
  Batch requests;
};

struct ViewChange {
  ViewId new_view = 0;
  /// Last stable checkpoint of the sender's slice.
  SeqNum stable_seq = 0;
  crypto::Digest stable_digest;
  ReplicaId replica = 0;
  std::vector<PreparedProof> prepared;
  crypto::Authenticator auth;
};

struct NewView {
  ViewId view = 0;
  ReplicaId replica = 0;
  /// Re-proposals for every in-window sequence number above the stable
  /// checkpoint (prepared batches, no-ops for gaps).
  std::vector<PrePrepare> pre_prepares;
  crypto::Authenticator auth;
};

/// Asks the proposer of instance (view, seq) to retransmit its
/// PRE-PREPARE; sent by a replica that holds votes for the instance but
/// missed the proposal (lossy network).
struct Fetch {
  ViewId view = 0;
  SeqNum seq = 0;
  ReplicaId replica = 0;
  crypto::Authenticator auth;
};

/// Asks a peer for its latest stable checkpoint at or above `min_seq`
/// (service-state snapshot plus certificate), delivered as a sequence of
/// chunked StateReply frames. Sent by a replica stranded past its peers'
/// log truncation (checkpoint-based state transfer).
struct StateRequest {
  SeqNum min_seq = 0;
  ReplicaId replica = 0;
  crypto::Authenticator auth;
};

/// One chunk of a checkpoint transfer. Every chunk repeats the header
/// (seq, composite digest, certificate voters) so the receiver can count
/// f+1 matching attestations before committing to an install, and so
/// chunks arriving out of order are self-describing.
struct StateReply {
  SeqNum seq = 0;
  /// Composite checkpoint digest the cluster agreed on at `seq`.
  crypto::Digest digest;
  /// Replicas whose matching votes made the checkpoint stable (>= 2f+1).
  /// With MAC authenticators this is a claim, not a transferable proof;
  /// the receiver cross-checks it against f+1 independent peer replies.
  std::vector<ReplicaId> certificate;
  std::uint32_t chunk = 0;
  std::uint32_t chunk_count = 0;
  Bytes data;
  ReplicaId replica = 0;
  crypto::Authenticator auth;
};

using Message =
    std::variant<Request, PrePrepare, Prepare, Commit, CheckpointMsg, Reply,
                 ViewChange, NewView, Fetch, StateRequest, StateReply>;

MsgType type_of(const Message& msg);
const char* type_name(MsgType type);

/// Replica id the message claims to originate from (clients for kRequest).
crypto::KeyNodeId sender_node(const Message& msg);

/// Mutable access to the top-level authenticator (for hosts that attach
/// authentication after the protocol core produced the message).
crypto::Authenticator& authenticator_of(Message& msg);
const crypto::Authenticator& authenticator_of(const Message& msg);

/// Canonical full encoding: [tag | body | authenticator].
Bytes encode_message(const Message& msg);

/// Encodes only the authenticated prefix [tag | body]; hosts append the
/// authenticator after computing MACs over these bytes. The buffer has
/// room for an authenticator of `recipients` MACs.
Bytes encode_authenticated_part(const Message& msg,
                                std::size_t recipients = 0);

/// Number of leading bytes of encode_message() covered by authentication.
std::size_t authenticated_size(const Message& msg);

/// Total encoded size without materializing the bytes (used by the
/// simulator's bandwidth accounting; tested to match encode_message).
std::size_t encoded_size(const Message& msg);

struct Decoded {
  Message msg;
  /// Length of the authenticated prefix within the input bytes.
  std::size_t body_size = 0;
};

/// Parses a full frame; nullopt on any malformed input (never throws, never
/// reads out of bounds).
std::optional<Decoded> decode_message(ByteSpan data);

/// The bytes a client MACs for a request: the request's [tag | body].
Bytes request_authenticated_bytes(const Request& req);
/// Writes the same bytes over `out`: a caller that passes one buffer every
/// time allocates only when a request outgrows it.
void write_request_authenticated(Bytes& out, const Request& req);

// ---- vote bundles ----------------------------------------------------------
//
// A pillar sends the votes its core emitted during one round to each peer
// as one frame with one authenticator:
//     [tag | sender u32 | count u32 | (len u32 | vote) x count | authenticator]
// Each vote is encoded in full with an empty authenticator, and the
// authenticator covers everything before it.

/// Tag of a bundle frame. No MsgType uses it, so decode_message rejects it.
inline constexpr std::uint8_t kVoteBundleTag = 0x40;

/// Prepare, Commit and Checkpoint: the messages a bundle may carry.
bool is_vote(const Message& msg);

/// True when `frame` claims to be a bundle; parse_vote_bundle decides
/// whether it is one.
inline bool is_vote_bundle(ByteSpan frame) {
  return !frame.empty() && frame[0] == kVoteBundleTag;
}

/// A received bundle, shared by every vote parsed from it. The receiver
/// checks its authenticator once, the first time one of its votes is
/// needed, and keeps the outcome in `check`.
struct VoteBundle {
  enum class Check : std::uint8_t { kPending, kValid, kInvalid };

  Bytes frame;
  /// Length of the authenticated prefix of `frame`.
  std::size_t body_size = 0;
  crypto::Authenticator auth;
  ReplicaId sender = 0;
  Check check = Check::kPending;
};

/// A message as handed to the core by its host.
struct IncomingMessage {
  Message msg;
  /// Full encoded frame when available (runtime); may be empty when the
  /// host works with parsed messages only (tests, simulator).
  Bytes raw;
  /// Length of the authenticated prefix of `raw`.
  std::size_t body_size = 0;
  /// Set by out-of-order hosts: authenticator already checked.
  bool pre_verified = false;
  /// Set for a vote that arrived in a bundle, whose one authenticator
  /// covers it in place of its own (`raw` is then empty).
  std::shared_ptr<VoteBundle> bundle;
};

/// Encoded size of a bundle of `votes` sealed for `recipients` peers.
std::size_t vote_bundle_size(const std::vector<Message>& votes,
                             std::size_t recipients);

/// Appends a bundle's authenticated part: everything but the
/// authenticator, which the sender appends after computing it.
void write_vote_bundle(Bytes& out, ReplicaId sender,
                       const std::vector<Message>& votes);

/// Splits a bundle frame received by replica `self` into its votes, in
/// order, each ready for the core and sharing the bundle's record. Nullopt,
/// for the whole frame, when the sender is `self` or not a replica, the
/// count is 0 or more than the bytes can hold, a length overruns the
/// frame, bytes trail the authenticator, or a vote is not a vote, names a
/// replica other than the sender or carries an authenticator of its own.
std::optional<std::vector<IncomingMessage>> parse_vote_bundle(
    Bytes frame, ReplicaId self, std::uint32_t num_replicas);

/// Digest identifying a batch (content of a PrePrepare).
crypto::Digest batch_digest(const crypto::CryptoProvider& crypto,
                            const std::vector<Request>& requests);

}  // namespace copbft::protocol
