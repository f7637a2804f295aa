// Message verification seam between the protocol core and its host.
//
// The core performs *in-order* verification: it asks the verifier only when
// a message is actually needed to make progress (paper §3.2). Hosts that
// implement *out-of-order* verification (the BFT-SMaRt baseline) verify
// before on_message() and mark the message pre-verified, in which case the
// core never calls back.
#pragma once

#include "common/metrics.hpp"
#include "crypto/provider.hpp"
#include "protocol/messages.hpp"

namespace copbft::protocol {

class MessageVerifier {
 public:
  virtual ~MessageVerifier() = default;

  /// Checks the top-level authenticator of `im` against `claimed_sender`.
  virtual bool verify(const IncomingMessage& im,
                      crypto::KeyNodeId claimed_sender) = 0;

  /// Checks a client request's authenticator (possibly nested inside a
  /// proposal, where no raw frame for the request exists).
  virtual bool verify_request(const Request& req) = 0;
};

/// Verifier over a CryptoProvider; re-encodes the authenticated part when
/// no raw frame is available, and a request's into a per-thread buffer.
class CryptoVerifier : public MessageVerifier {
 public:
  /// `self` is the node id MAC entries are addressed to. `bundles_checked`,
  /// if set, counts the bundle authenticators actually computed.
  CryptoVerifier(const crypto::CryptoProvider& crypto, crypto::KeyNodeId self,
                 metrics::Counter* bundles_checked = nullptr)
      : crypto_(crypto), self_(self), bundles_checked_(bundles_checked) {}

  bool verify(const IncomingMessage& im,
              crypto::KeyNodeId claimed_sender) override {
    if (claimed_sender == kUnknownNode) return false;
    if (im.bundle)
      return claimed_sender == replica_node(im.bundle->sender) &&
             check_bundle(*im.bundle);
    const auto& auth = authenticator_of(im.msg);
    if (!im.raw.empty()) {
      ByteSpan body{im.raw.data(), im.body_size};
      return auth.verify(crypto_, claimed_sender, self_, body);
    }
    Bytes body = encode_message(im.msg);
    body.resize(authenticated_size(im.msg));
    return auth.verify(crypto_, claimed_sender, self_, body);
  }

  bool verify_request(const Request& req) override {
    // Per thread: SMaRt's verification workers share one verifier.
    thread_local Bytes body;
    write_request_authenticated(body, req);
    return req.auth.verify(crypto_, client_node(req.client), self_, body);
  }

  /// Checks a bundle's authenticator from its sender. Only the first call
  /// computes the MAC; later ones return the recorded outcome.
  bool check_bundle(VoteBundle& bundle) {
    if (bundle.check == VoteBundle::Check::kPending) {
      if (bundles_checked_) bundles_checked_->add();
      const bool valid =
          bundle.auth.verify(crypto_, replica_node(bundle.sender), self_,
                             ByteSpan{bundle.frame.data(), bundle.body_size});
      bundle.check =
          valid ? VoteBundle::Check::kValid : VoteBundle::Check::kInvalid;
    }
    return bundle.check == VoteBundle::Check::kValid;
  }

 private:
  const crypto::CryptoProvider& crypto_;
  crypto::KeyNodeId self_;
  metrics::Counter* const bundles_checked_;
};

/// Accepts everything; for tests and for simulator configurations where
/// verification cost is accounted separately.
class AcceptAllVerifier : public MessageVerifier {
 public:
  bool verify(const IncomingMessage&, crypto::KeyNodeId) override {
    return true;
  }
  bool verify_request(const Request&) override { return true; }
};

}  // namespace copbft::protocol
