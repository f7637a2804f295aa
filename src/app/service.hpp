// Deterministic replicated-service interface (state-machine replication).
//
// The execution stage invokes execute() strictly in total order; any two
// non-faulty replicas that executed the same prefix must hold identical
// state and return identical results. state_digest() feeds checkpointing
// and must be cheap — implementations maintain it incrementally (the paper
// notes services can pre-compute parts of the checkpoint hash, §2.2).
//
// pre_validate() is COP's pre-execution offloading hook (§4.3.1): it runs
// inside the pillar, outside the total order. post_process() runs on the
// execution stage after execute(), before the reply is sealed. Neither may
// touch ordered state.
//
// At a checkpoint the execution stage takes a version() of the state and
// hands it to the state-transfer manager, which encodes it only when a
// peer asks for it. A service whose version() is cheap (KvStore's is
// O(buckets)) keeps the checkpoint off the execution critical path.
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "crypto/provider.hpp"
#include "protocol/messages.hpp"

namespace copbft::app {

/// Result type of Service::classify, which nothing in the replica calls.
struct AccessClass {
  static AccessClass global() { return {}; }
};

/// Immutable service state, taken at a quiescent point by
/// Service::version(). It stays valid, and unchanged, while the service
/// executes on and after the service is gone.
class StateVersion {
 public:
  virtual ~StateVersion() = default;
  /// Exactly the bytes Service::snapshot() returned when the version was
  /// taken. Safe on any thread, concurrently with execution.
  virtual Bytes encode() const = 0;
};

/// A version that already holds its encoding.
class EncodedVersion final : public StateVersion {
 public:
  explicit EncodedVersion(Bytes snapshot) : snapshot_(std::move(snapshot)) {}
  Bytes encode() const override { return snapshot_; }

 private:
  const Bytes snapshot_;
};

class Service {
 public:
  virtual ~Service() = default;

  /// Executes one ordered request; returns the reply payload. Calls come
  /// from the execution stage thread alone, one at a time.
  virtual Bytes execute(const protocol::Request& request) = 0;

  /// Nothing in the replica calls this; kept for existing overrides.
  virtual AccessClass classify(const protocol::Request&) const {
    return AccessClass::global();
  }

  /// Incrementally maintained digest over the full service state. Called
  /// on the execution stage thread between two execute() calls, never
  /// while one is running (KvStore asserts this).
  virtual crypto::Digest state_digest() const = 0;

  /// Offloaded pre-execution (parse/validate), run in the pillar before
  /// ordering completes enforcement; false rejects the request early.
  virtual bool pre_validate(const protocol::Request&) { return true; }

  /// Post-processing of a fresh reply (e.g. final formatting), run on the
  /// execution stage thread after execute() produced `result`. A cached
  /// retransmission resends the raw result without it.
  virtual Bytes post_process(const protocol::Request&, Bytes result) {
    return result;
  }

  /// Serializes the full service state for checkpoint-based state
  /// transfer. The encoding is the service's own; the only contract is
  /// restore(snapshot(), state_digest()) == true on a fresh instance.
  /// The default (empty + restore() == false) marks a service that cannot
  /// be transferred; laggard replicas of such a service stay stranded.
  virtual Bytes snapshot() const { return {}; }

  /// The state now, as a handle whose encode() gives snapshot()'s bytes
  /// later, on any thread. Called on the execution stage thread between
  /// two execute() calls. The default encodes at once, which suits small
  /// states and wrappers; a large state overrides it to share structure
  /// with the live state instead.
  virtual std::shared_ptr<const StateVersion> version() const {
    return std::make_shared<const EncodedVersion>(snapshot());
  }

  /// Replaces the state with the decoded `snapshot` iff the restored
  /// state's digest equals `expect`. Must be atomic: parse and verify into
  /// scratch state first, swap last, so a Byzantine peer's bad snapshot
  /// never leaves partial state behind. Returns false on parse failure or
  /// digest mismatch, leaving the current state untouched.
  virtual bool restore(ByteSpan, const crypto::Digest&) { return false; }
};

}  // namespace copbft::app
