// Machine-readable benchmark output: each figure bench emits, next to its
// human-readable table, a BENCH_<figure>.json document with one record per
// (system, cores/clients/payload) cell — headline throughput/latency plus
// the per-stage queue and load series from the simulated leader.
// bench/validate_bench_json gates these files; plotting scripts consume
// them. Keys are emitted in a fixed order so diffs between runs stay
// readable; every scalar is formatted by common/json.hpp.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/simulation.hpp"

namespace copbft::bench {

class BenchJsonWriter {
 public:
  BenchJsonWriter(std::string figure, bool batching, std::uint64_t measure_ns)
      : figure_(std::move(figure)),
        batching_(batching),
        measure_ns_(measure_ns) {}

  /// Records one measured cell. `clients`/`payload` are part of the key
  /// for fig6-style sweeps; core-sweep figures pass their fixed values.
  void add(const char* system, std::uint32_t cores, std::uint32_t clients,
           std::size_t payload, const sim::SimResult& r) {
    std::string e = "    {";
    json::field(e, "system", system);
    json::field(e, "cores", cores);
    json::field(e, "clients", clients);
    json::field(e, "payload_b", payload);
    json::field(e, "throughput_ops", r.throughput_ops);
    json::field(e, "completed_ops", r.completed_ops);
    json::field(e, "latency_mean_us", r.latency_mean_us);
    json::field(e, "latency_p50_us", r.latency_p50_us);
    json::field(e, "latency_p99_us", r.latency_p99_us);
    json::field(e, "leader_tx_mbps", r.leader_tx_mbps);
    json::field(e, "leader_cpu", r.leader_cpu_utilization);
    json::field(e, "follower_cpu", r.follower_cpu_utilization);
    json::field(e, "instances", r.instances);
    json::field(e, "reorder_peak", r.leader_reorder_peak);
    e += ",\"stages\":[";
    for (const auto& stage : r.leader_stages) {
      json::separate(e);
      e += '{';
      json::field(e, "name", stage.name);
      json::field(e, "busy", stage.busy_fraction);
      json::field(e, "backlog", stage.backlog);
      e += '}';
    }
    e += "]}";
    entries_.push_back(std::move(e));
  }

  /// Writes the accumulated document; returns false on I/O failure.
  bool write(const std::string& path) const {
    std::string out = "{\n  ";
    json::field(out, "figure", figure_);
    out += ",\n  ";
    json::field(out, "batching", batching_);
    out += ",\n  ";
    json::field(out, "measure_ns", measure_ns_);
    out += ",\n  \"results\":[\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += entries_[i];
      if (i + 1 < entries_.size()) out += ',';
      out += '\n';
    }
    out += "  ]\n}\n";

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  const std::string figure_;
  const bool batching_;
  const std::uint64_t measure_ns_;
  std::vector<std::string> entries_;
};

}  // namespace copbft::bench
