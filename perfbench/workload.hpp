// Workloads and cluster shape of the closed-loop COP benchmark.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace perfbench {

/// The cluster: N=4 replicas tolerating f=1, NP=2 pillars each.
constexpr std::uint32_t kReplicas = 4;
constexpr std::uint32_t kMaxFaulty = 1;
constexpr std::uint32_t kPillars = 2;

/// Client identities: one per pillar lane (client id % NP), the fewest
/// that keep both pillars fed. Each replica holds kClients connections.
constexpr std::uint32_t kClients = 2;

/// Key material shared by the cluster and its clients.
constexpr std::uint64_t kKeySeed = 5;

constexpr std::size_t kNullRequestBytes = 16;
constexpr std::size_t kNullReplyBytes = 32;
constexpr std::uint32_t kKvKeys = 16'384;
constexpr std::size_t kKvValueBytes = 1024;

enum class ServiceKind : std::uint8_t { kNull, kKv };

struct Workload {
  const char* name;
  ServiceKind service;
  /// Outstanding requests per client (closed loop).
  std::uint32_t window;
  /// ProtocolConfig::max_active_proposals: own proposals in flight per
  /// pillar, 0 = bounded only by the watermark window (the default).
  std::uint32_t max_active_proposals;
  /// Clusters set up and measured one after another in an untraced run;
  /// each end-to-end metric is the median over them.
  std::uint32_t sessions;
  /// Extra sessions an untraced run may spend replacing ones the host
  /// disturbed (see run_steady_sessions).
  std::uint32_t spare_sessions;
  /// Closed-loop warm-up before the measured window.
  std::uint32_t warmup_ms;
};

inline constexpr std::array<Workload, 3> kWorkloads{{
    // Latency-bound: 8 requests outstanding leave the CPU mostly idle, so
    // the time is the hand-off chain (lane -> pillar -> exec -> pillar ->
    // lane) and the pillar-loop wake-ups. Catches a change that buys
    // throughput with latency.
    {"null_light", ServiceKind::kNull, 4, 0, 8, 6, 500},
    // CPU-bound on agreement: 64 outstanding unbatched requests keep the
    // cluster busy on MACs, PbftCore and the pillar loop while execution
    // does nothing, so savings there show as throughput and CPU per op.
    {"null_saturated", ServiceKind::kNull, 32, 0, 8, 8, 500},
    // Byte-bound: one proposal in flight per pillar makes batches form, so
    // agreement is amortised and the cost is per byte — SHA-256 over 1 KiB
    // payloads and KV entries, 1 KiB reply sealing, codec copies and 16 MiB
    // checkpoint snapshots on the exec thread.
    {"kv_batched", ServiceKind::kKv, 32, 1, 4, 4, 2000},
}};

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace perfbench
