// Cluster simulator: runs the COP / TOP / BFT-SMaRt replica architectures
// over simulated multi-core machines and GbE adapters in virtual time.
//
// This is the reproduction vehicle for the paper's evaluation (§5): its
// testbed of four 12-core replica machines with four 1 GbE adapters each
// is far larger than one host, so multi-core scaling is reproduced by
// simulation. Protocol behaviour is NOT modelled — each simulated logic
// unit drives a real protocol::PbftCore (the same class the threaded
// runtime uses); only CPU time and network bytes are accounted through
// sim::CostModel instead of being burned for real.
//
// Setup mirrors §5 "The Setup": 4 replica machines (configurable cores,
// 2 SMT contexts each, four 1 GbE adapters), 5 client machines, closed-
// loop clients with bounded asynchronous windows, checkpoints every 1000
// instances.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "core/runtime_config.hpp"
#include "protocol/config.hpp"
#include "protocol/pbft_core.hpp"
#include "sim/cost_model.hpp"
#include "sim/nic.hpp"

namespace copbft::sim {

enum class SimArch {
  kCop,        ///< consensus-oriented parallelization (paper §4)
  kTop,        ///< task-oriented pipeline, multi-instance, in-order verify
  kSmart,      ///< BFT-SMaRt-like: single-instance, out-of-order verify
  kSmartStar,  ///< BFT-SMaRt* : one connection per adapter (paper §5)
};

const char* arch_name(SimArch arch);

/// Application model executed by the simulated execution stage. Service
/// *state* is irrelevant for performance; cost and reply size matter.
enum class SimService {
  kNull,          ///< microbenchmark service (§5.1/§5.2)
  kCoordination,  ///< ZooKeeper-like coordination service (§5.3)
};

struct SimConfig {
  SimArch arch = SimArch::kCop;
  SimService service = SimService::kNull;
  protocol::ProtocolConfig protocol;

  // ---- hardware (per replica machine) ----
  std::uint32_t cores = 12;

  /// COP pillars; 0 = auto (two per core, the paper's single-core setup
  /// used two pillars on two hardware threads).
  std::uint32_t num_pillars = 0;

  // ---- workload ----
  std::uint32_t clients = 800;
  std::uint32_t client_window = 8;
  std::size_t request_payload = 0;
  std::size_t reply_payload = 0;
  /// Coordination service only (§5.3):
  double read_ratio = 0.0;

  core::ReplyMode reply_mode = core::ReplyMode::kAll;

  // ---- measurement ----
  SimTime warmup = 300 * 1'000'000ULL;    // 300 ms
  SimTime measure = 1'000 * 1'000'000ULL; // 1 s
  std::uint64_t seed = 42;

  // ---- fault injection ----
  /// Fault schedule: a timeline of per-replica events.
  ///   kPause   — cut the replica's network (it neither sends nor receives;
  ///              its cores keep spinning on stale state).
  ///   kResume  — restore the network. The cluster meanwhile truncated its
  ///              logs past the laggard's window, so rejoining goes through
  ///              the checkpoint-based state-transfer path under load.
  ///   kCrash   — network cut *plus* full loss of volatile state.
  ///   kRecover — restart with fresh protocol cores and an empty execution
  ///              frontier; first peer contact reveals the gap and triggers
  ///              state transfer.
  struct FaultEvent {
    enum class Kind { kPause, kResume, kCrash, kRecover };
    SimTime at = 0;
    std::uint32_t replica = 0;
    Kind kind = Kind::kPause;
  };
  std::vector<FaultEvent> faults;

  /// Delay every frame leaving `replica` on pillar lane `lane` by an extra
  /// `delay_ns` while now ∈ [from, until) (until = 0 → forever): a slow or
  /// throttled pillar connection stalling one COP lane.
  struct LaneStall {
    std::uint32_t replica = 0;
    std::uint32_t lane = 0;
    SimTime delay_ns = 0;
    SimTime from = 0;
    SimTime until = 0;
  };
  std::vector<LaneStall> lane_stalls;

  /// WAN topology: per-(src, dst) one-way latencies with seeded jitter and
  /// transient partitions (sim/nic.hpp LinkModel). Disabled by default —
  /// the uniform LAN constant of the cost model applies.
  struct WanConfig {
    bool enabled = false;
    /// Replica-to-replica default when no link override matches.
    SimTime default_latency_ns = 110'000;
    /// Uniform jitter [0, jitter_ns] added per transfer, seeded draw.
    SimTime jitter_ns = 0;
    /// One-way overrides, applied in both directions of each listed pair.
    std::vector<LinkSpec> links;
    /// Transient partitions between replica sets.
    std::vector<PartitionSpec> partitions;
    /// Latency between client machines and every replica.
    SimTime client_latency_ns = 110'000;
  };
  WanConfig wan;

  CostModel costs;

  /// Resolved pillar count for this configuration.
  std::uint32_t pillars() const {
    if (arch != SimArch::kCop) return 1;
    return num_pillars != 0 ? num_pillars : 2 * cores;
  }
  /// TOP/SMaRt auxiliary thread-pool size.
  std::uint32_t pool() const {
    switch (arch) {
      case SimArch::kTop:
        return 4;  // the pipeline's additional authentication threads
      case SimArch::kSmart:
        return 5;  // the original's fixed worker pool
      default:
        return std::max(2u, cores);  // BFT-SMaRt*: workers scale with cores
    }
  }
};

struct SimResult {
  /// Completed client operations per second (stable f+1 reply quorums).
  double throughput_ops = 0;
  /// Client-observed request->stable-result latency.
  double latency_mean_us = 0;
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p99_us = 0;
  /// Leader (replica 0) egress during the measurement window, MB/s.
  double leader_tx_mbps = 0;
  /// Aggregated protocol-core statistics of replica 0.
  protocol::CoreStats leader_core;
  std::uint64_t completed_ops = 0;
  double leader_cpu_utilization = 0;
  double follower_cpu_utilization = 0;
  std::uint64_t instances = 0;
  /// Completed state transfers (fault injection).
  std::uint64_t state_transfers = 0;

  /// Execution frontier (next_seq) of every replica at the end of the run;
  /// scenario liveness/recovery checks read these.
  std::vector<std::uint64_t> replica_next_seq;
  /// Cross-replica execution fork oracle: number of sequence numbers two
  /// correct replicas executed with different batch contents. Must be 0 —
  /// any other value is a safety violation.
  std::uint64_t fork_detections = 0;
  /// Injected misbehaviour actually exercised (sum over the adversary's
  /// cores; zero on fault-free runs).
  std::uint64_t adversary_equivocations = 0;
  std::uint64_t adversary_omissions = 0;
  /// Completed client operations per 10 ms bucket over the whole run
  /// (warmup included, bucket 0 = virtual time 0). Scenario posts-fault
  /// liveness checks and recovery-time estimates read this timeline.
  std::vector<std::uint64_t> ops_timeline;
  static constexpr SimTime kTimelineBucketNs = 10 * 1'000'000ULL;

  /// Per-stage load of the leader machine's simulated threads: fraction of
  /// the run each stage was busy and its queued jobs at the end (the
  /// per-stage series the BENCH json exposes alongside the headline
  /// numbers).
  struct StageLoad {
    std::string name;
    double busy_fraction = 0;
    std::uint64_t backlog = 0;
  };
  std::vector<StageLoad> leader_stages;
  /// Peak depth of the leader's reorder buffer (execution-stage series).
  std::uint64_t leader_reorder_peak = 0;
};

SimResult run_simulation(const SimConfig& config);

}  // namespace copbft::sim
