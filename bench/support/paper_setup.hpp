// Shared benchmark setup mirroring the paper's evaluation environment
// (§5 "The Setup"): four replicas, f=1, checkpoint interval 1000,
// BFT-SMaRt-style MAC authentication, machines with up to 12 cores
// (2 hardware threads each) and four 1 GbE adapters; five client machines.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/metrics.hpp"
#include "sim/simulation.hpp"

namespace copbft::bench {

using sim::SimArch;
using sim::SimConfig;
using sim::SimResult;

/// Measurement duration: default 400 ms simulated (plus 200 ms warmup);
/// override with COPBFT_BENCH_MEASURE_MS for longer, steadier runs.
inline sim::SimTime measure_ns() {
  if (const char* env = std::getenv("COPBFT_BENCH_MEASURE_MS"))
    return static_cast<sim::SimTime>(std::atoll(env)) * 1'000'000ULL;
  return 400 * 1'000'000ULL;
}

/// Baseline configuration for one system at a core count (paper §5).
inline SimConfig paper_config(SimArch arch, std::uint32_t cores,
                              bool batching) {
  SimConfig cfg;
  cfg.arch = arch;
  cfg.cores = cores;

  cfg.protocol.num_replicas = 4;
  cfg.protocol.max_faulty = 1;
  cfg.protocol.checkpoint_interval = 1000;
  // Drift bound (§4.2.2): batched runs keep pillars within ~1 checkpoint
  // interval of the execution frontier; unbatched runs need deep instance
  // pipelining and use a wider window.
  cfg.protocol.window = batching ? 2400 : 4000;
  cfg.protocol.max_batch = batching ? 400 : 1;
  cfg.protocol.view_change_timeout_us = 0;   // fault-free runs
  cfg.protocol.retransmit_interval_us = 150'000;  // heals window-drift drops
  cfg.protocol.num_pillars = cfg.pillars();

  // Single-instance logic for the BFT-SMaRt baseline (§3.2); COP/TOP use
  // multi-instance logic: adaptive batching pipelines two batches per
  // logic unit, unbatched runs are window-limited.
  bool single_instance =
      (arch == SimArch::kSmart || arch == SimArch::kSmartStar);
  cfg.protocol.max_active_proposals = single_instance ? 1 : (batching ? 4 : 0);

  cfg.warmup = 200 * 1'000'000ULL;
  cfg.measure = measure_ns();

  // Saturating closed-loop load (paper: "the generated workload is chosen
  // such that it completely saturates the measured system").
  if (batching) {
    cfg.clients = 2400;
    cfg.client_window = 8;
  } else {
    cfg.clients = 800;
    cfg.client_window = 4;
  }
  return cfg;
}

inline void print_header(const char* bench, const char* columns) {
  // Opt-in periodic metrics dump (COPBFT_METRICS_DUMP=<path>); a no-op for
  // the pure-simulator figures, populated by threaded-runtime benches.
  metrics::MetricsDumper::maybe_start_from_env();
  std::printf("# %s\n", bench);
  std::printf("# paper: Behl, Distler, Kapitza — Consensus-Oriented "
              "Parallelization (Middleware '15)\n");
  std::printf("%s\n", columns);
}

}  // namespace copbft::bench
