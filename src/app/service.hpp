// Deterministic replicated-service interface (state-machine replication).
//
// The execution stage invokes execute() strictly in total order; any two
// non-faulty replicas that executed the same prefix must hold identical
// state and return identical results. state_digest() feeds checkpointing
// and must be cheap — implementations maintain it incrementally (the paper
// notes services can pre-compute parts of the checkpoint hash, §2.2).
//
// pre_validate()/post_process() are COP's offloading hooks (§4.3.1): they
// run inside the pillar, outside the total order, and must not touch
// ordered state.
#pragma once

#include "common/bytes.hpp"
#include "crypto/provider.hpp"
#include "protocol/messages.hpp"

namespace copbft::app {

/// Result type of Service::classify, which nothing in the replica calls.
struct AccessClass {
  static AccessClass global() { return {}; }
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

  /// Offloaded post-processing of a reply (e.g. final formatting), run in
  /// the pillar after the ordered part produced `result`.
  virtual Bytes post_process(const protocol::Request&, Bytes result) {
    return result;
  }

  /// Serializes the full service state for checkpoint-based state
  /// transfer. The encoding is the service's own; the only contract is
  /// restore(snapshot(), state_digest()) == true on a fresh instance.
  /// The default (empty + restore() == false) marks a service that cannot
  /// be transferred; laggard replicas of such a service stay stranded.
  virtual Bytes snapshot() const { return {}; }

  /// Replaces the state with the decoded `snapshot` iff the restored
  /// state's digest equals `expect`. Must be atomic: parse and verify into
  /// scratch state first, swap last, so a Byzantine peer's bad snapshot
  /// never leaves partial state behind. Returns false on parse failure or
  /// digest mismatch, leaving the current state untouched.
  virtual bool restore(ByteSpan, const crypto::Digest&) { return false; }
};

}  // namespace copbft::app
