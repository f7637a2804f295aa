// Workload generators for benchmarks, examples and tests.
#pragma once

#include <string>

#include "app/coordination.hpp"
#include "app/kv_store.hpp"
#include "common/rng.hpp"

namespace copbft::client {

/// Microbenchmark workload: fixed-size opaque payloads (paper §5.1/§5.2).
class NullWorkload {
 public:
  explicit NullWorkload(std::size_t payload_size)
      : payload_(payload_size, Byte{0x5a}) {}

  Bytes next() { return payload_; }

 private:
  Bytes payload_;
};

/// Uniform reads/writes over a fixed key space.
class KvWorkload {
 public:
  KvWorkload(std::uint64_t seed, std::uint32_t num_keys,
             std::size_t value_size, double read_ratio)
      : rng_(seed),
        num_keys_(num_keys),
        value_(value_size, Byte{0x11}),
        read_ratio_(read_ratio) {}

  Bytes next() {
    std::string key = "key-" + std::to_string(rng_.below(num_keys_));
    if (rng_.chance(read_ratio_))
      return app::KvOp{app::KvOpCode::kGet, key, {}}.encode();
    return app::KvOp{app::KvOpCode::kPut, key, value_}.encode();
  }

 private:
  Rng rng_;
  std::uint32_t num_keys_;
  Bytes value_;
  double read_ratio_;
};

/// Coordination-service workload (paper §5.3): a prepared namespace of
/// `num_nodes` znodes carrying `data_size` bytes each; clients read and
/// write nodes uniformly with the given read proportion.
class CoordWorkload {
 public:
  CoordWorkload(std::uint64_t seed, std::uint32_t num_nodes,
                std::size_t data_size, double read_ratio)
      : rng_(seed),
        num_nodes_(num_nodes),
        data_(data_size, Byte{0x22}),
        read_ratio_(read_ratio) {}

  /// Path of the i-th prepared node.
  static std::string node_path(std::uint32_t i) {
    return "/node-" + std::to_string(i);
  }

  Bytes next() {
    std::string path = node_path(
        static_cast<std::uint32_t>(rng_.below(num_nodes_)));
    if (rng_.chance(read_ratio_))
      return app::CoordOp{app::CoordOpCode::kGetData, path, {}}.encode();
    return app::CoordOp{app::CoordOpCode::kSetData, path, data_}.encode();
  }

 private:
  Rng rng_;
  std::uint32_t num_nodes_;
  Bytes data_;
  double read_ratio_;
};

}  // namespace copbft::client
