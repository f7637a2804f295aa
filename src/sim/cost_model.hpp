// CPU/network cost model of the cluster simulator.
//
// All constants are virtual nanoseconds of CPU work on one core of the
// simulated machines (2x Intel Xeon E5-2430v2, 2.5 GHz — the paper's
// testbed, §5 "The Setup") for the paper's Java prototypes. They are
// anchored on two kinds of evidence, documented in EXPERIMENTS.md:
//   * microbenchmarks of this repository's own SHA-256/HMAC and
//     serialization code (bench/micro_crypto, bench/micro_queue), scaled
//     for the Java-on-2013-Xeon environment of the paper, and
//   * the paper's single-core anchor points (BFT-SMaRt* 84k ops/s,
//     COP 190k ops/s batched on one core).
// The *shape* of every reproduced figure comes from the architecture
// (which thread does what, what saturates), not from per-curve tuning:
// all architectures share one cost model.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/event_queue.hpp"

namespace copbft::sim {

struct CostModel {
  // ---- cryptography ----
  /// HMAC-SHA256 over a small message (key schedule + 2 compressions).
  double mac_base_ns = 1300.0;
  double mac_per_byte_ns = 3.2;
  /// SHA-256 content digest.
  double digest_base_ns = 550.0;
  double digest_per_byte_ns = 3.2;

  // ---- wire handling ----
  double parse_base_ns = 400.0;
  double parse_per_byte_ns = 0.35;
  double serialize_base_ns = 400.0;
  double serialize_per_byte_ns = 0.35;

  // ---- protocol / threading ----
  /// Protocol-logic bookkeeping per consumed message.
  double logic_per_message_ns = 420.0;
  /// Enqueue side of handing an item to another thread (queue node,
  /// fences, wakeup) — the synchronization overhead the paper blames
  /// pipelines for (§3.1). The receiving side pays dequeue_ns.
  double handoff_ns = 1450.0;
  double dequeue_ns = 1450.0;
  /// Context-switch penalty charged per dispatched task while more
  /// software threads are runnable than hardware contexts exist — the
  /// "scheduling overhead" of thread-rich pipelines (paper §5.1).
  double oversub_switch_ns = 600.0;
  /// Kernel/socket cost per message handed to a NIC.
  double send_base_ns = 650.0;
  double send_per_byte_ns = 0.20;
  /// Per-request client-handling/reply-path inefficiency of the original
  /// BFT-SMaRt (the paper removed it for BFT-SMaRt*, §5 "The Subjects").
  double legacy_client_ns = 22'000.0;

  // ---- execution stage ----
  // Pre-execution offload (§4.3.1): commit admission runs on the pillar
  // that delivered the instance — it publishes straight into its slice of
  // the reorder ring (pillar_admit_ns, charged to the pillar) and wakes
  // the stage only when it published the execution frontier (one
  // dequeue_ns on the stage per wake, not per commit). The stage itself
  // pays only the in-order take + service invocation below.
  double exec_base_ns = 180.0;    ///< per ordered request, null service
  double pillar_admit_ns = 170.0; ///< lock-free ring publish, on the pillar
  double exec_order_ns = 60.0;    ///< ring take per executed instance
  /// Building + routing one reply hand-off to its originating pillar — the
  /// only per-reply work the modelled §4.3.2 offload leaves in the stage.
  double reply_task_ns = 90.0;
  double reply_build_ns = 280.0;

  // ---- application ----
  /// Coordination service: tree lookup + version bump per operation.
  double coord_op_ns = 900.0;

  // ---- clients ----
  double client_issue_ns = 900.0;   ///< build request (digest, bookkeeping)
  double client_reply_ns = 450.0;   ///< per received reply (match + verify share)

  // ---- network ----
  /// 1 GbE adapter, measured 118 MB/s per direction (paper §5).
  double nic_bytes_per_ns = 0.118;
  /// One-way propagation incl. TCP/Java stack latency. This is the uniform
  /// LAN of the paper's testbed; WAN scenarios override it per (src, dst)
  /// pair via sim::LinkModel (nic.hpp) instead of this single constant.
  SimTime propagation_ns = 110'000;

  // ---- SMT ----
  /// Relative speed of a hardware thread whose core sibling is busy.
  double smt_speed = 0.62;

  double mac_ns(std::size_t bytes) const {
    return mac_base_ns + mac_per_byte_ns * static_cast<double>(bytes);
  }
  double digest_ns(std::size_t bytes) const {
    return digest_base_ns + digest_per_byte_ns * static_cast<double>(bytes);
  }
  double parse_ns(std::size_t bytes) const {
    return parse_base_ns + parse_per_byte_ns * static_cast<double>(bytes);
  }
  double serialize_ns(std::size_t bytes) const {
    return serialize_base_ns +
           serialize_per_byte_ns * static_cast<double>(bytes);
  }
  double send_ns(std::size_t bytes) const {
    return send_base_ns + send_per_byte_ns * static_cast<double>(bytes);
  }
  SimTime wire_ns(std::size_t bytes) const {
    return static_cast<SimTime>(static_cast<double>(bytes) /
                                nic_bytes_per_ns);
  }
};

}  // namespace copbft::sim
