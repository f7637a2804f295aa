// Figure 7: coordination service — maximum throughput with a varying
// proportion of read requests (paper §5.3).
//
// The replicated service is the ZooKeeper-like coordination service with
// strongly consistent reads (reads are totally ordered like writes and
// executed in the single service thread). Namespace prepared with 10,000
// nodes of 128 B; reads have small requests and large replies, writes the
// opposite. 12 cores, batching on.
//
// Expected shape: throughput grows with the read share (large replies
// spread over all replicas, large write requests burden the leader's
// proposals); COP stays 2.5-4x above TOP and is network-bound.
#include <cstdio>

#include "support/paper_setup.hpp"

int main() {
  using namespace copbft::bench;
  print_header("Figure 7 — coordination service, read/write mix",
               "# read_pct  system  kops_per_s  leader_MB_per_s");

  const double kReadRatios[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  const SimArch kSystems[] = {SimArch::kSmart, SimArch::kSmartStar,
                              SimArch::kTop, SimArch::kCop};

  for (SimArch arch : kSystems) {
    for (double ratio : kReadRatios) {
      SimConfig cfg = paper_config(arch, 12, /*batching=*/true);
      cfg.service = copbft::sim::SimService::kCoordination;
      cfg.read_ratio = ratio;
      SimResult r = run_simulation(cfg);
      std::printf("%9.0f  %-11s %10.1f %12.1f\n", ratio * 100.0,
                  copbft::sim::arch_name(arch), r.throughput_ops / 1000.0,
                  r.leader_tx_mbps);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
