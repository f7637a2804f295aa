#include "sim/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <set>

#include "common/invariant.hpp"
#include "common/json.hpp"

namespace copbft::sim {
namespace {

// Counting oracle for COP_INVARIANT firings during a scenario run. The
// handler is a plain function pointer, so the counter is file-static; the
// simulator is single-threaded but the threaded runtime's tests share the
// process, hence atomic.
std::atomic<std::uint64_t> g_invariant_firings{0};

void count_invariant(const InvariantViolation&) {
  g_invariant_firings.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SimTime last_fault_clear_ns(const ScenarioSpec& spec) {
  SimTime clear = 0;
  for (const SimConfig::FaultEvent& ev : spec.config.faults) {
    using Kind = SimConfig::FaultEvent::Kind;
    if (ev.kind == Kind::kResume || ev.kind == Kind::kRecover)
      clear = std::max(clear, ev.at);
  }
  for (const PartitionSpec& p : spec.config.wan.partitions)
    clear = std::max(clear, p.until_ns);
  for (const SimConfig::LaneStall& s : spec.config.lane_stalls)
    if (s.until != 0) clear = std::max(clear, s.until);
  const protocol::AdversaryConfig& adv = spec.config.protocol.adversary;
  if (adv.replica != protocol::AdversaryConfig::kNoAdversary &&
      adv.until_us != 0)
    clear = std::max(clear, adv.until_us * 1'000);
  return clear;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  std::uint64_t before = g_invariant_firings.load(std::memory_order_relaxed);
  InvariantHandler previous = set_invariant_handler(&count_invariant);

  ScenarioResult result;
  result.sim = run_simulation(spec.config);

  set_invariant_handler(previous);
  result.invariant_firings =
      g_invariant_firings.load(std::memory_order_relaxed) - before;

  // Post-fault liveness: completed operations in timeline buckets that
  // start at or after the moment the last bounded fault cleared. With no
  // bounded fault this is the whole run.
  result.last_fault_clear_ns = last_fault_clear_ns(spec);
  for (std::size_t i = 0; i < result.sim.ops_timeline.size(); ++i)
    if (i * SimResult::kTimelineBucketNs >= result.last_fault_clear_ns)
      result.post_fault_completed_ops += result.sim.ops_timeline[i];

  // Recovery: every fault-affected correct replica's execution frontier
  // must sit within 2 * window of the cluster frontier at the end.
  std::set<std::uint32_t> affected;
  for (const SimConfig::FaultEvent& ev : spec.config.faults)
    affected.insert(ev.replica);
  for (const PartitionSpec& p : spec.config.wan.partitions) {
    for (std::uint32_t r : p.a) affected.insert(r);
    for (std::uint32_t r : p.b) affected.insert(r);
  }
  for (const SimConfig::LaneStall& s : spec.config.lane_stalls)
    affected.insert(s.replica);
  std::uint64_t cluster_frontier = 0;
  for (std::uint64_t f : result.sim.replica_next_seq)
    cluster_frontier = std::max(cluster_frontier, f);
  for (std::uint32_t r : affected) {
    if (r == spec.config.protocol.adversary.replica) continue;
    if (r >= result.sim.replica_next_seq.size()) continue;
    if (result.sim.replica_next_seq[r] + 2 * spec.config.protocol.window <
        cluster_frontier)
      result.recoveries_complete = false;
  }
  return result;
}

std::string scenario_json(const ScenarioSpec& spec, const ScenarioResult& r) {
  const SimConfig& cfg = spec.config;
  std::string out = "{\n  ";
  json::field(out, "schema", "copbft-scenario-v1");
  out += ",\n  ";
  json::field(out, "name", spec.name);
  out += ",\n  ";
  json::field(out, "description", spec.description);
  out += ",\n  \"axes\":[";
  for (const std::string& axis : spec.axes) json::append(out, axis);
  out += "],\n  \"config\":{";
  json::field(out, "arch", arch_name(cfg.arch));
  json::field(out, "seed", cfg.seed);
  json::field(out, "cores", cfg.cores);
  json::field(out, "pillars", cfg.pillars());
  json::field(out, "clients", cfg.clients);
  json::field(out, "client_window", cfg.client_window);
  json::field(out, "checkpoint_interval", cfg.protocol.checkpoint_interval);
  json::field(out, "window", cfg.protocol.window);
  json::field(out, "warmup_ns", cfg.warmup);
  json::field(out, "measure_ns", cfg.measure);
  json::field(out, "fault_events", cfg.faults.size());
  json::field(out, "lane_stalls", cfg.lane_stalls.size());
  json::field(out, "wan", cfg.wan.enabled);
  json::field(out, "partitions", cfg.wan.partitions.size());
  json::field(out, "adversary_replica", cfg.protocol.adversary.replica);
  json::field(out, "adversary_equivocate", cfg.protocol.adversary.equivocate);
  json::field(out, "adversary_omit_targets",
              cfg.protocol.adversary.omit_votes_to.size());
  out += "},\n  \"results\":{";
  json::field(out, "throughput_ops", r.sim.throughput_ops);
  json::field(out, "completed_ops", r.sim.completed_ops);
  json::field(out, "latency_mean_us", r.sim.latency_mean_us);
  json::field(out, "latency_p50_us", r.sim.latency_p50_us);
  json::field(out, "latency_p99_us", r.sim.latency_p99_us);
  json::field(out, "instances", r.sim.instances);
  json::field(out, "state_transfers", r.sim.state_transfers);
  json::field(out, "fork_detections", r.sim.fork_detections);
  json::field(out, "invariant_firings", r.invariant_firings);
  json::field(out, "adversary_equivocations", r.sim.adversary_equivocations);
  json::field(out, "adversary_omissions", r.sim.adversary_omissions);
  json::field(out, "last_fault_clear_ns", r.last_fault_clear_ns);
  json::field(out, "post_fault_completed_ops", r.post_fault_completed_ops);
  json::field(out, "recoveries_complete", r.recoveries_complete);
  out += ",\"replica_next_seq\":[";
  for (std::uint64_t seq : r.sim.replica_next_seq) json::append(out, seq);
  out += "],\"ops_timeline_10ms\":[";
  for (std::uint64_t ops : r.sim.ops_timeline) json::append(out, ops);
  out += "]}\n}\n";
  return out;
}

// --------------------------------------------------------------------------
// Built-in fault campaigns. All are sized to finish in a few wall-clock
// seconds each so CI can run the full set per PR; every spec keeps the
// default seed so runs are reproducible bit for bit.

namespace {

SimConfig scenario_base() {
  SimConfig cfg;
  cfg.arch = SimArch::kCop;
  cfg.cores = 2;
  cfg.clients = 80;
  cfg.client_window = 4;
  cfg.warmup = 100 * 1'000'000ULL;   // 100 ms
  cfg.measure = 400 * 1'000'000ULL;  // 400 ms
  cfg.protocol.checkpoint_interval = 100;
  cfg.protocol.window = 400;
  cfg.protocol.max_active_proposals = 4;
  cfg.protocol.view_change_timeout_us = 0;
  cfg.protocol.retransmit_interval_us = 20'000;  // 20 ms
  return cfg;
}

}  // namespace

std::vector<ScenarioSpec> builtin_scenarios() {
  std::vector<ScenarioSpec> specs;

  {
    // Byzantine leader: replica 0 (the view-0 leader of every slice) sends
    // conflicting pre-prepares to disjoint peer halves for its first
    // 150 ms. Followers cannot assemble a commit quorum for either
    // variant; the view-change timeout moves the group to view 1, whose
    // leader re-proposes from the surviving prepared proofs. Safety must
    // hold throughout (no fork), and throughput must return once the
    // equivocation window closes.
    ScenarioSpec s;
    s.name = "byz_equivocate_leader";
    s.description =
        "leader equivocates conflicting pre-prepares for 150ms; view change "
        "restores liveness, fork oracle stays silent";
    s.axes = {"byzantine"};
    s.config = scenario_base();
    s.config.protocol.view_change_timeout_us = 100'000;  // 100 ms
    s.config.protocol.adversary.replica = 0;
    s.config.protocol.adversary.equivocate = true;
    s.config.protocol.adversary.until_us = 150'000;
    specs.push_back(std::move(s));
  }

  {
    // Selective omission: follower replica 1 suppresses every own
    // PREPARE/COMMIT towards replicas 2 and 3 for the whole run. Quorums
    // of 2f (prepares) / 2f+1 (commits) remain reachable without those
    // votes, so the cluster must keep full liveness.
    ScenarioSpec s;
    s.name = "byz_omit_votes";
    s.description =
        "follower omits all its votes to two peers for the whole run; "
        "quorums survive and throughput stays up";
    s.axes = {"byzantine"};
    s.config = scenario_base();
    s.config.protocol.adversary.replica = 1;
    s.config.protocol.adversary.omit_votes_to = {2, 3};
    specs.push_back(std::move(s));
  }

  {
    // One stalled pillar lane: every frame replica 2 sends on pillar
    // lane 1 is delayed by 3 ms during [100 ms, 300 ms). The slice of the
    // stalled lane commits late, exercising the reorder ring and drift
    // bounds, but sibling pillars keep the cluster moving.
    ScenarioSpec s;
    s.name = "byz_stall_pillar";
    s.description =
        "replica 2's pillar lane 1 delayed 3ms for 200ms; drift bounds and "
        "reorder ring absorb the skew";
    s.axes = {"byzantine"};
    s.config = scenario_base();
    s.config.lane_stalls.push_back(
        {/*replica=*/2, /*lane=*/1, /*delay_ns=*/3'000'000,
         /*from=*/100 * 1'000'000ULL, /*until=*/300 * 1'000'000ULL});
    specs.push_back(std::move(s));
  }

  {
    // Crash + recover under load: replica 3 loses all volatile state at
    // 150 ms and restarts at 250 ms. The cluster's checkpoints advance
    // past its window meanwhile, so rejoining must go through the
    // checkpoint-based state transfer while traffic keeps flowing.
    ScenarioSpec s;
    s.name = "churn_crash_recover";
    s.description =
        "replica 3 crashes at 150ms, restarts with empty state at 250ms; "
        "checkpoint state transfer catches it back up under load";
    s.axes = {"churn"};
    s.config = scenario_base();
    using Kind = SimConfig::FaultEvent::Kind;
    s.config.faults.push_back({150 * 1'000'000ULL, 3, Kind::kCrash});
    s.config.faults.push_back({250 * 1'000'000ULL, 3, Kind::kRecover});
    specs.push_back(std::move(s));
  }

  {
    // Pause/resume churn loop: replica 2 drops off and rejoins three
    // times. Each gap is short enough that retransmission (or, if the
    // window slid, a state transfer) re-integrates it.
    ScenarioSpec s;
    s.name = "churn_flap";
    s.description =
        "replica 2 flaps off/on three times; retransmission and window "
        "slides re-integrate it each time";
    s.axes = {"churn"};
    s.config = scenario_base();
    using Kind = SimConfig::FaultEvent::Kind;
    for (SimTime start :
         {100 * 1'000'000ULL, 180 * 1'000'000ULL, 260 * 1'000'000ULL}) {
      s.config.faults.push_back({start, 2, Kind::kPause});
      s.config.faults.push_back({start + 30 * 1'000'000ULL, 2, Kind::kResume});
    }
    specs.push_back(std::move(s));
  }

  {
    // Geo-replication: two regions ({0,1} and {2,3}) with 300 us
    // intra-region and 40 ms inter-region one-way latency plus up to 3 ms
    // of jitter. Quorums always span regions, so commit latency carries
    // the WAN round trips; throughput degrades but must stay nonzero and
    // deterministic.
    ScenarioSpec s;
    s.name = "wan_georep";
    s.description =
        "two regions, 40ms inter-region latency with 3ms jitter; quorums "
        "span the WAN and commit latency absorbs the round trips";
    s.axes = {"wan"};
    s.config = scenario_base();
    s.config.wan.enabled = true;
    s.config.wan.default_latency_ns = 40 * 1'000'000ULL;
    s.config.wan.jitter_ns = 3 * 1'000'000ULL;
    s.config.wan.links = {{0, 1, 300'000}, {2, 3, 300'000}};
    s.config.wan.client_latency_ns = 5 * 1'000'000ULL;
    specs.push_back(std::move(s));
  }

  {
    // Transient partition: replica 3 is cut off from the other three
    // during [150 ms, 300 ms) while clients keep submitting. The majority
    // side retains 2f+1 and keeps committing; the isolated replica
    // re-integrates after the partition heals.
    ScenarioSpec s;
    s.name = "wan_partition";
    s.description =
        "replica 3 partitioned from the majority for 150ms on a mild WAN; "
        "the 2f+1 side keeps committing and the loner re-integrates";
    s.axes = {"wan", "churn"};
    s.config = scenario_base();
    s.config.wan.enabled = true;
    s.config.wan.default_latency_ns = 2 * 1'000'000ULL;
    s.config.wan.jitter_ns = 500'000;
    s.config.wan.client_latency_ns = 2 * 1'000'000ULL;
    s.config.wan.partitions.push_back(
        {/*from_ns=*/150 * 1'000'000ULL, /*until_ns=*/300 * 1'000'000ULL,
         /*a=*/{3},
         /*b=*/{0, 1, 2}});
    specs.push_back(std::move(s));
  }

  return specs;
}

}  // namespace copbft::sim
