#include "protocol/messages.hpp"

#include "protocol/wire.hpp"

namespace copbft::protocol {
namespace {

constexpr std::size_t kAuthEntrySize =
    sizeof(crypto::KeyNodeId) + sizeof(crypto::Mac::bytes);  // 4 + 16

std::size_t auth_size(const crypto::Authenticator& a) {
  return 2 + a.entries.size() * kAuthEntrySize;
}

// ---- body writers ----------------------------------------------------

void write_request_body(WireWriter& w, const Request& m) {
  w.u32(m.client);
  w.u64(m.id);
  w.u8(m.flags);
  w.bytes(m.payload);
}

// Requests nested inside proposals/proofs are written in full frame form
// [tag | body | auth] so receivers can verify the client's MAC.
void write_request_full(WireWriter& w, const Request& m) {
  w.u8(static_cast<std::uint8_t>(MsgType::kRequest));
  write_request_body(w, m);
  w.authenticator(m.auth);
}

std::size_t request_body_size(const Request& m) {
  return 4 + 8 + 1 + 4 + m.payload.size();
}

std::size_t request_full_size(const Request& m) {
  return 1 + request_body_size(m) + auth_size(m.auth);
}

Request read_request_full(WireReader& r) {
  Request m;
  if (r.u8() != static_cast<std::uint8_t>(MsgType::kRequest)) {
    // Force failure: consume past end.
    while (r.ok()) r.u64();
    return m;
  }
  m.client = r.u32();
  m.id = r.u64();
  m.flags = r.u8();
  m.payload = r.bytes();
  m.auth = r.authenticator();
  return m;
}

void write_requests(WireWriter& w, const std::vector<Request>& reqs) {
  w.u32(static_cast<std::uint32_t>(reqs.size()));
  for (const auto& req : reqs) write_request_full(w, req);
}

std::vector<Request> read_requests(WireReader& r) {
  std::uint32_t n = r.u32();
  std::vector<Request> out;
  // Each request occupies >= 20 bytes on the wire; bound allocations.
  if (!r.ok() || r.remaining() / 20 < n) {
    while (r.ok()) r.u64();
    return out;
  }
  out.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i)
    out.push_back(read_request_full(r));
  return out;
}

std::size_t requests_size(const std::vector<Request>& reqs) {
  std::size_t total = 4;
  for (const auto& req : reqs) total += request_full_size(req);
  return total;
}

void write_pre_prepare_body(WireWriter& w, const PrePrepare& m) {
  w.u64(m.view);
  w.u64(m.seq);
  w.digest(m.digest);
  write_requests(w, m.requests);
}

void write_pre_prepare_full(WireWriter& w, const PrePrepare& m) {
  w.u8(static_cast<std::uint8_t>(MsgType::kPrePrepare));
  write_pre_prepare_body(w, m);
  w.authenticator(m.auth);
}

std::size_t pre_prepare_full_size(const PrePrepare& m) {
  return 1 + 8 + 8 + 32 + requests_size(m.requests) + auth_size(m.auth);
}

PrePrepare read_pre_prepare_body(WireReader& r) {
  PrePrepare m;
  m.view = r.u64();
  m.seq = r.u64();
  m.digest = r.digest();
  m.requests = read_requests(r);
  return m;
}

void write_proof(WireWriter& w, const PreparedProof& p) {
  w.u64(p.view);
  w.u64(p.seq);
  w.digest(p.digest);
  write_requests(w, p.requests);
}

PreparedProof read_proof(WireReader& r) {
  PreparedProof p;
  p.view = r.u64();
  p.seq = r.u64();
  p.digest = r.digest();
  p.requests = read_requests(r);
  return p;
}

std::size_t proof_size(const PreparedProof& p) {
  return 8 + 8 + 32 + requests_size(p.requests);
}

// Writes [tag | body]; the caller appends the authenticator.
std::size_t write_authenticated_part(WireWriter& w, const Message& msg) {
  w.u8(static_cast<std::uint8_t>(type_of(msg)));
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Request>) {
          write_request_body(w, m);
        } else if constexpr (std::is_same_v<T, PrePrepare>) {
          write_pre_prepare_body(w, m);
        } else if constexpr (std::is_same_v<T, Prepare> ||
                             std::is_same_v<T, Commit>) {
          w.u64(m.view);
          w.u64(m.seq);
          w.digest(m.digest);
          w.u32(m.replica);
        } else if constexpr (std::is_same_v<T, CheckpointMsg>) {
          w.u64(m.seq);
          w.digest(m.digest);
          w.u32(m.replica);
        } else if constexpr (std::is_same_v<T, Reply>) {
          w.u64(m.view);
          w.u32(m.client);
          w.u64(m.id);
          w.u32(m.replica);
          w.bytes(m.result);
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          w.u64(m.new_view);
          w.u64(m.stable_seq);
          w.digest(m.stable_digest);
          w.u32(m.replica);
          w.u32(static_cast<std::uint32_t>(m.prepared.size()));
          for (const auto& p : m.prepared) write_proof(w, p);
        } else if constexpr (std::is_same_v<T, NewView>) {
          w.u64(m.view);
          w.u32(m.replica);
          w.u32(static_cast<std::uint32_t>(m.pre_prepares.size()));
          for (const auto& pp : m.pre_prepares) write_pre_prepare_full(w, pp);
        } else if constexpr (std::is_same_v<T, Fetch>) {
          w.u64(m.view);
          w.u64(m.seq);
          w.u32(m.replica);
        } else if constexpr (std::is_same_v<T, StateRequest>) {
          w.u64(m.min_seq);
          w.u32(m.replica);
        } else if constexpr (std::is_same_v<T, StateReply>) {
          w.u64(m.seq);
          w.digest(m.digest);
          w.u32(static_cast<std::uint32_t>(m.certificate.size()));
          for (ReplicaId voter : m.certificate) w.u32(voter);
          w.u32(m.chunk);
          w.u32(m.chunk_count);
          w.bytes(m.data);
          w.u32(m.replica);
        }
      },
      msg);
  return w.size();
}

}  // namespace

MsgType type_of(const Message& msg) {
  return static_cast<MsgType>(msg.index() + 1);
}

const char* type_name(MsgType type) {
  switch (type) {
    case MsgType::kRequest:
      return "REQUEST";
    case MsgType::kPrePrepare:
      return "PRE-PREPARE";
    case MsgType::kPrepare:
      return "PREPARE";
    case MsgType::kCommit:
      return "COMMIT";
    case MsgType::kCheckpoint:
      return "CHECKPOINT";
    case MsgType::kReply:
      return "REPLY";
    case MsgType::kViewChange:
      return "VIEW-CHANGE";
    case MsgType::kNewView:
      return "NEW-VIEW";
    case MsgType::kFetch:
      return "FETCH";
    case MsgType::kStateRequest:
      return "STATE-REQUEST";
    case MsgType::kStateReply:
      return "STATE-REPLY";
  }
  return "?";
}

crypto::KeyNodeId sender_node(const Message& msg) {
  return std::visit(
      [](const auto& m) -> crypto::KeyNodeId {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Request>) {
          return client_node(m.client);
        } else if constexpr (std::is_same_v<T, PrePrepare>) {
          // The proposer is implied by (view, seq); hosts resolve it via
          // ProtocolConfig::leader_for before verifying.
          return kUnknownNode;
        } else {
          return replica_node(m.replica);
        }
      },
      msg);
}

crypto::Authenticator& authenticator_of(Message& msg) {
  return std::visit(
      [](auto& m) -> crypto::Authenticator& { return m.auth; }, msg);
}

const crypto::Authenticator& authenticator_of(const Message& msg) {
  return std::visit(
      [](const auto& m) -> const crypto::Authenticator& { return m.auth; },
      msg);
}

Bytes encode_message(const Message& msg) {
  Bytes out;
  out.reserve(encoded_size(msg));
  WireWriter w(out);
  write_authenticated_part(w, msg);
  w.authenticator(authenticator_of(msg));
  return out;
}

Bytes encode_authenticated_part(const Message& msg, std::size_t recipients) {
  Bytes out;
  out.reserve(authenticated_size(msg) + 2 + recipients * kAuthEntrySize);
  WireWriter w(out);
  write_authenticated_part(w, msg);
  return out;
}

std::size_t authenticated_size(const Message& msg) {
  return encoded_size(msg) - auth_size(authenticator_of(msg));
}

std::size_t encoded_size(const Message& msg) {
  std::size_t body = std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Request>) {
          return request_body_size(m);
        } else if constexpr (std::is_same_v<T, PrePrepare>) {
          return 8 + 8 + 32 + requests_size(m.requests);
        } else if constexpr (std::is_same_v<T, Prepare> ||
                             std::is_same_v<T, Commit>) {
          return 8 + 8 + 32 + 4;
        } else if constexpr (std::is_same_v<T, CheckpointMsg>) {
          return 8 + 32 + 4;
        } else if constexpr (std::is_same_v<T, Reply>) {
          return 8 + 4 + 8 + 4 + 4 + m.result.size();
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          std::size_t n = 8 + 8 + 32 + 4 + 4;
          for (const auto& p : m.prepared) n += proof_size(p);
          return n;
        } else if constexpr (std::is_same_v<T, NewView>) {
          std::size_t n = 8 + 4 + 4;
          for (const auto& pp : m.pre_prepares) n += pre_prepare_full_size(pp);
          return n;
        } else if constexpr (std::is_same_v<T, Fetch>) {
          return 8 + 8 + 4;
        } else if constexpr (std::is_same_v<T, StateRequest>) {
          return 8 + 4;
        } else if constexpr (std::is_same_v<T, StateReply>) {
          return 8 + 32 + 4 + 4 * m.certificate.size() + 4 + 4 + 4 +
                 m.data.size() + 4;
        }
      },
      msg);
  return 1 + body + auth_size(authenticator_of(msg));
}

std::optional<Decoded> decode_message(ByteSpan data) {
  WireReader r(data);
  std::uint8_t tag = r.u8();
  if (!r.ok()) return std::nullopt;

  Message msg;
  switch (static_cast<MsgType>(tag)) {
    case MsgType::kRequest: {
      Request m;
      m.client = r.u32();
      m.id = r.u64();
      m.flags = r.u8();
      m.payload = r.bytes();
      msg = std::move(m);
      break;
    }
    case MsgType::kPrePrepare: {
      msg = read_pre_prepare_body(r);
      break;
    }
    case MsgType::kPrepare: {
      Prepare m;
      m.view = r.u64();
      m.seq = r.u64();
      m.digest = r.digest();
      m.replica = r.u32();
      msg = m;
      break;
    }
    case MsgType::kCommit: {
      Commit m;
      m.view = r.u64();
      m.seq = r.u64();
      m.digest = r.digest();
      m.replica = r.u32();
      msg = m;
      break;
    }
    case MsgType::kCheckpoint: {
      CheckpointMsg m;
      m.seq = r.u64();
      m.digest = r.digest();
      m.replica = r.u32();
      msg = m;
      break;
    }
    case MsgType::kReply: {
      Reply m;
      m.view = r.u64();
      m.client = r.u32();
      m.id = r.u64();
      m.replica = r.u32();
      m.result = r.bytes();
      msg = std::move(m);
      break;
    }
    case MsgType::kViewChange: {
      ViewChange m;
      m.new_view = r.u64();
      m.stable_seq = r.u64();
      m.stable_digest = r.digest();
      m.replica = r.u32();
      std::uint32_t n = r.u32();
      if (!r.ok() || r.remaining() / 48 < n) return std::nullopt;
      m.prepared.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i)
        m.prepared.push_back(read_proof(r));
      msg = std::move(m);
      break;
    }
    case MsgType::kNewView: {
      NewView m;
      m.view = r.u64();
      m.replica = r.u32();
      std::uint32_t n = r.u32();
      if (!r.ok() || r.remaining() / 51 < n) return std::nullopt;
      m.pre_prepares.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        if (r.u8() != static_cast<std::uint8_t>(MsgType::kPrePrepare))
          return std::nullopt;
        PrePrepare pp = read_pre_prepare_body(r);
        pp.auth = r.authenticator();
        m.pre_prepares.push_back(std::move(pp));
      }
      msg = std::move(m);
      break;
    }
    case MsgType::kFetch: {
      Fetch m;
      m.view = r.u64();
      m.seq = r.u64();
      m.replica = r.u32();
      msg = m;
      break;
    }
    case MsgType::kStateRequest: {
      StateRequest m;
      m.min_seq = r.u64();
      m.replica = r.u32();
      msg = m;
      break;
    }
    case MsgType::kStateReply: {
      StateReply m;
      m.seq = r.u64();
      m.digest = r.digest();
      std::uint32_t n = r.u32();
      if (!r.ok() || r.remaining() / 4 < n) return std::nullopt;
      m.certificate.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i)
        m.certificate.push_back(r.u32());
      m.chunk = r.u32();
      m.chunk_count = r.u32();
      m.data = r.bytes();
      m.replica = r.u32();
      msg = std::move(m);
      break;
    }
    default:
      return std::nullopt;
  }

  if (!r.ok()) return std::nullopt;
  std::size_t body_size = r.position();
  authenticator_of(msg) = r.authenticator();
  if (!r.at_end()) return std::nullopt;
  return Decoded{std::move(msg), body_size};
}

const std::shared_ptr<const Batch::Requests>& Batch::empty_shared() {
  static const std::shared_ptr<const Requests> empty =
      std::make_shared<const Requests>();
  return empty;
}

Bytes request_authenticated_bytes(const Request& req) {
  Bytes out;
  write_request_authenticated(out, req);
  return out;
}

void write_request_authenticated(Bytes& out, const Request& req) {
  out.clear();
  out.reserve(1 + request_body_size(req));
  WireWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kRequest));
  write_request_body(w, req);
}

crypto::Digest batch_digest(const crypto::CryptoProvider& crypto,
                            const std::vector<Request>& requests) {
  std::size_t size = 4;
  for (const auto& req : requests) size += request_body_size(req);
  // Per thread, so batches are encoded without allocating once it has
  // grown to the largest one seen.
  thread_local Bytes buf;
  buf.clear();
  buf.reserve(size);
  WireWriter w(buf);
  w.u32(static_cast<std::uint32_t>(requests.size()));
  for (const auto& req : requests) write_request_body(w, req);
  return crypto.digest(buf);
}


bool is_vote(const Message& msg) {
  return std::holds_alternative<Prepare>(msg) ||
         std::holds_alternative<Commit>(msg) ||
         std::holds_alternative<CheckpointMsg>(msg);
}

std::size_t vote_bundle_size(const std::vector<Message>& votes,
                             std::size_t recipients) {
  std::size_t total = 1 + 4 + 4 + 2 + recipients * kAuthEntrySize;
  for (const Message& vote : votes)
    total += 4 + authenticated_size(vote) + auth_size({});
  return total;
}

void write_vote_bundle(Bytes& out, ReplicaId sender,
                       const std::vector<Message>& votes) {
  WireWriter w(out);
  w.u8(kVoteBundleTag);
  w.u32(sender);
  w.u32(static_cast<std::uint32_t>(votes.size()));
  for (const Message& vote : votes) {
    const std::size_t len_at = out.size();
    w.u32(0);
    write_authenticated_part(w, vote);
    w.authenticator({});
    const auto len = static_cast<std::uint32_t>(out.size() - len_at - 4);
    for (std::size_t i = 0; i < 4; ++i)
      out[len_at + i] = static_cast<Byte>(len >> (8 * i));
  }
}

std::optional<std::vector<IncomingMessage>> parse_vote_bundle(
    Bytes frame, ReplicaId self, std::uint32_t num_replicas) {
  // The smallest vote on the wire: its length, then a Checkpoint with an
  // empty authenticator.
  constexpr std::size_t kMinBundledVote = 4 + 1 + 8 + 32 + 4 + 2;
  WireReader r(frame);
  const std::uint8_t tag = r.u8();
  const ReplicaId sender = r.u32();
  const std::uint32_t count = r.u32();
  if (!r.ok() || tag != kVoteBundleTag || sender == self ||
      sender >= num_replicas || count == 0 ||
      r.remaining() / kMinBundledVote < count)
    return std::nullopt;
  std::vector<IncomingMessage> votes;
  votes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t len = r.u32();
    if (!r.ok() || r.remaining() < len) return std::nullopt;
    auto vote = decode_message(ByteSpan{frame.data() + r.position(), len});
    if (!vote || !is_vote(vote->msg) ||
        sender_node(vote->msg) != replica_node(sender) ||
        !authenticator_of(vote->msg).entries.empty())
      return std::nullopt;
    r.skip(len);
    votes.emplace_back().msg = std::move(vote->msg);
  }
  const std::size_t body_size = r.position();
  crypto::Authenticator auth = r.authenticator();
  if (!r.at_end()) return std::nullopt;
  const auto bundle = std::make_shared<VoteBundle>(
      VoteBundle{std::move(frame), body_size, std::move(auth), sender,
                 VoteBundle::Check::kPending});
  for (IncomingMessage& im : votes) im.bundle = bundle;
  return votes;
}

}  // namespace copbft::protocol
