// Self-tests of the benchmark's own arithmetic, on canned inputs.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {
namespace {

std::string data(const std::string& name) {
  return std::string(PERFBENCH_TEST_DATA) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Percentile, NearestRankOverOneToHundred) {
  std::vector<std::uint64_t> sample(100);
  std::iota(sample.begin(), sample.end(), 1);
  EXPECT_EQ(percentile(sample, 0.50), 50u);
  EXPECT_EQ(percentile(sample, 0.99), 99u);
  EXPECT_EQ(percentile(sample, 1.00), 100u);
  EXPECT_EQ(percentile(sample, 0.001), 1u);
}

TEST(Percentile, SmallAndEmptySamples) {
  EXPECT_EQ(percentile({}, 0.5), 0u);
  EXPECT_EQ(percentile({7}, 0.99), 7u);
  // Two samples: the median is the lower one (rank ceil(0.5 * 2) = 1).
  EXPECT_EQ(percentile({3, 9}, 0.50), 3u);
  EXPECT_EQ(percentile({3, 9}, 0.99), 9u);
}

TEST(Percentile, SamplesBeyondDecidesWhetherATailIsSupported) {
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);   // ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);  // the smallest supported n
  EXPECT_EQ(samples_beyond(9'999, 0.999), 9u);
  EXPECT_EQ(samples_beyond(10'000, 0.999), 10u);
  EXPECT_EQ(samples_beyond(55'123, 0.50), 27'561u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({0.030, 0.010, 0.020}), 0.020);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PerOp, NormalisesWindowDeltas) {
  EXPECT_DOUBLE_EQ(per_op(600, 200), 3.0);
  // Per kop: 5 gap fills over 2000 ops.
  EXPECT_DOUBLE_EQ(per_op(5, 2000, 1e3), 2.5);
  // Ticks of 10 ms to microseconds per op: 360 ticks over 55,000 ops.
  EXPECT_NEAR(per_op(360 * 1e4, 55'000), 65.4545, 1e-4);
  EXPECT_DOUBLE_EQ(per_op(7, 0), 0.0);
}

TEST(ProcParse, TaskStatFieldsFromCannedFile) {
  const auto stat =
      parse_task_stat(read_file(data("proc_after/task/101/stat")));
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->comm, "pillar-0");
  EXPECT_EQ(stat->utime, 1600u);
  EXPECT_EQ(stat->stime, 260u);
}

TEST(ProcParse, NameWithSpacesAndParentheses) {
  const auto stat = parse_task_stat(read_file(data("task_stat_odd_name")));
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->comm, "a b) c)");
  EXPECT_EQ(stat->utime, 12u);
  EXPECT_EQ(stat->stime, 34u);
}

TEST(ProcParse, RejectsTruncatedStat) {
  EXPECT_FALSE(parse_task_stat(read_file(data("task_stat_truncated"))));
  EXPECT_FALSE(parse_task_stat("no parentheses here"));
}

TEST(ProcParse, TaskStatusSwitches) {
  const auto sw =
      parse_task_status(read_file(data("proc_after/task/102/status")));
  ASSERT_TRUE(sw.has_value());
  EXPECT_EQ(sw->voluntary, 13'000u);
  EXPECT_EQ(sw->involuntary, 20u);
  EXPECT_FALSE(parse_task_status(read_file(data("task_status_partial"))));
}

TEST(ProcParse, ProcessTicks) {
  EXPECT_EQ(read_process_ticks(data("process_stat")), 2900u);
  EXPECT_FALSE(read_process_ticks(data("missing")).has_value());
}

TEST(Roles, ThreadNamesOfAReplicaProcess) {
  EXPECT_EQ(role_of("pillar-1"), Role::kPillar);
  EXPECT_EQ(role_of("exec"), Role::kExec);
  EXPECT_EQ(role_of("exwk-0"), Role::kOther);
  EXPECT_EQ(role_of("tcp-lane1"), Role::kLane);
  EXPECT_EQ(role_of("statex"), Role::kStatex);
  EXPECT_EQ(role_of("copbench"), Role::kOther);
  EXPECT_STREQ(role_name(Role::kLane), "lane");
}

TEST(Roles, GroupsDeltasOfThreadsPresentInBothReadings) {
  const auto before = read_tasks(data("proc_before/task"));
  const auto after = read_tasks(data("proc_after/task"));
  ASSERT_EQ(before.size(), 4u);
  ASSERT_EQ(after.size(), 4u);
  const auto roles = group_deltas(before, after);

  // 105 (pillar-1) started after the first reading and is left out.
  const RoleUsage& pillar = roles[static_cast<int>(Role::kPillar)];
  EXPECT_EQ(pillar.threads, 1u);
  EXPECT_EQ(pillar.ticks, 660u);
  EXPECT_EQ(pillar.max_thread_ticks, 660u);
  EXPECT_EQ(pillar.voluntary, 3000u);
  EXPECT_EQ(pillar.involuntary, 15u);

  const RoleUsage& exec = roles[static_cast<int>(Role::kExec)];
  EXPECT_EQ(exec.ticks, 150u);
  EXPECT_EQ(exec.voluntary, 4000u);

  const RoleUsage& lane = roles[static_cast<int>(Role::kLane)];
  EXPECT_EQ(lane.ticks, 280u);
  EXPECT_EQ(lane.voluntary, 11'000u);
  EXPECT_EQ(lane.involuntary, 1u);

  // 104 (statex) exited before the second reading.
  EXPECT_EQ(roles[static_cast<int>(Role::kStatex)].threads, 0u);
}

TEST(Roles, RoundingAllowanceCoversTwoTicksPerThreadAndProcess) {
  EXPECT_EQ(tick_rounding_allowance(0), 2u);
  EXPECT_EQ(tick_rounding_allowance(25), 52u);
}

TEST(OpLedger, OutstandingOpsAtTheDrainDeadlineFail) {
  OpLedger ledger;
  for (int i = 0; i < 10; ++i) ledger.issue();
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(ledger.complete(true));
  EXPECT_TRUE(ledger.complete(false));
  EXPECT_EQ(ledger.outstanding(), 3u);

  ledger.close();  // the drain deadline
  EXPECT_FALSE(ledger.complete(true));  // too late: still a failure

  EXPECT_EQ(ledger.ok(), 6u);
  EXPECT_EQ(ledger.wrong(), 1u);
  EXPECT_EQ(ledger.failed(), 4u);
  EXPECT_DOUBLE_EQ(error_rate(ledger.failed(), ledger.issued()), 0.4);
}

TEST(OpLedger, CleanDrainHasNoErrors) {
  OpLedger ledger;
  EXPECT_DOUBLE_EQ(error_rate(ledger.failed(), ledger.issued()), 0.0);
  for (int i = 0; i < 3; ++i) ledger.issue();
  for (int i = 0; i < 3; ++i) ledger.complete(true);
  ledger.close();
  EXPECT_EQ(ledger.failed(), 0u);
  EXPECT_DOUBLE_EQ(error_rate(ledger.failed(), ledger.issued()), 0.0);
}

}  // namespace
}  // namespace perfbench
