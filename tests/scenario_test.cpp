// Adversarial scenario engine: determinism of the BENCH artifact,
// correctness of the fault-clear computation, and the safety/liveness
// gates on representative built-in campaigns.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/json.hpp"
#include "sim/scenario.hpp"

namespace copbft::test {
namespace {

using namespace copbft::sim;

// A deliberately small campaign touching all three fault axes so the
// determinism test covers every serializer branch without the cost of a
// full built-in run.
ScenarioSpec small_spec() {
  ScenarioSpec s;
  s.name = "test_mixed";
  s.description = "small mixed-axis campaign for engine tests";
  s.axes = {"byzantine", "churn", "wan"};
  s.config.arch = SimArch::kCop;
  s.config.cores = 2;
  s.config.clients = 40;
  s.config.client_window = 4;
  s.config.warmup = 50 * 1'000'000ULL;
  s.config.measure = 200 * 1'000'000ULL;
  s.config.protocol.checkpoint_interval = 100;
  s.config.protocol.window = 400;
  s.config.protocol.max_active_proposals = 4;
  s.config.protocol.view_change_timeout_us = 0;
  s.config.protocol.retransmit_interval_us = 20'000;
  s.config.protocol.adversary.replica = 1;
  s.config.protocol.adversary.omit_votes_to = {2};
  s.config.faults.push_back(
      {80 * 1'000'000ULL, 3, SimConfig::FaultEvent::Kind::kCrash});
  s.config.faults.push_back(
      {140 * 1'000'000ULL, 3, SimConfig::FaultEvent::Kind::kRecover});
  s.config.wan.enabled = true;
  s.config.wan.default_latency_ns = 500'000;  // 0.5 ms
  s.config.wan.jitter_ns = 100'000;
  s.config.wan.client_latency_ns = 500'000;
  return s;
}

// Acceptance criterion: the same spec + seed must produce bit-identical
// artifact bytes across two independent runs. Any hidden nondeterminism
// (wall-clock reads, unseeded randomness, iteration over hashed
// containers) shows up here as a byte diff.
TEST(ScenarioEngine, ArtifactIsBitIdenticalAcrossRuns) {
  ScenarioSpec spec = small_spec();
  ScenarioResult first = run_scenario(spec);
  ScenarioResult second = run_scenario(spec);
  std::string a = scenario_json(spec, first);
  std::string b = scenario_json(spec, second);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "scenario artifact must be deterministic";
  EXPECT_TRUE(json::valid(a));
}

TEST(ScenarioEngine, LastFaultClearSpansAllFaultSources) {
  ScenarioSpec spec = small_spec();
  // Recover at 140 ms dominates the schedule above.
  EXPECT_EQ(last_fault_clear_ns(spec), 140 * 1'000'000ULL);

  // A partition outlasting it moves the clear point.
  spec.config.wan.partitions.push_back(
      {120 * 1'000'000ULL, 180 * 1'000'000ULL, {3}, {0, 1, 2}});
  EXPECT_EQ(last_fault_clear_ns(spec), 180 * 1'000'000ULL);

  // A bounded adversary window later still wins (until_us is microseconds).
  spec.config.protocol.adversary.until_us = 190'000;
  EXPECT_EQ(last_fault_clear_ns(spec), 190 * 1'000'000ULL);

  // Unbounded faults (omission with until_us=0) contribute nothing.
  ScenarioSpec unbounded;
  unbounded.config.protocol.adversary.replica = 1;
  unbounded.config.protocol.adversary.omit_votes_to = {2};
  EXPECT_EQ(last_fault_clear_ns(unbounded), 0u);
}

TEST(ScenarioEngine, BuiltinsCoverAllThreeAxes) {
  auto specs = builtin_scenarios();
  EXPECT_GE(specs.size(), 6u);
  std::set<std::string> names, axes;
  for (const ScenarioSpec& s : specs) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    for (const std::string& axis : s.axes) axes.insert(axis);
  }
  EXPECT_TRUE(axes.count("byzantine"));
  EXPECT_TRUE(axes.count("churn"));
  EXPECT_TRUE(axes.count("wan"));
}

// The regression gate itself, on the crash-recover campaign: a crashed
// replica must rejoin via state transfer and the cluster must keep
// committing after the fault clears.
TEST(ScenarioEngine, CrashRecoverPassesSafetyAndLivenessGates) {
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    if (spec.name != "churn_crash_recover") continue;
    ScenarioResult r = run_scenario(spec);
    EXPECT_TRUE(r.safe());
    EXPECT_EQ(r.sim.fork_detections, 0u);
    EXPECT_EQ(r.invariant_firings, 0u);
    EXPECT_GT(r.post_fault_completed_ops, 0u) << "no liveness after recover";
    EXPECT_TRUE(r.recoveries_complete) << "replica 3 stranded";
    EXPECT_GE(r.sim.state_transfers, 1u) << "recovery must use state transfer";
    return;
  }
  FAIL() << "churn_crash_recover scenario missing from builtins";
}

// Equivocation by the view-0 leader: the adversary hook must actually
// fire (conflicting pre-prepares sent), and the oracle must confirm no
// correct replica forked while the view change restored progress.
TEST(ScenarioEngine, LeaderEquivocationIsObservedAndHarmless) {
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    if (spec.name != "byz_equivocate_leader") continue;
    ScenarioResult r = run_scenario(spec);
    EXPECT_GT(r.sim.adversary_equivocations, 0u) << "adversary never acted";
    EXPECT_TRUE(r.safe());
    EXPECT_GT(r.post_fault_completed_ops, 0u)
        << "no progress after the equivocation window closed";
    return;
  }
  FAIL() << "byz_equivocate_leader scenario missing from builtins";
}

}  // namespace
}  // namespace copbft::test
