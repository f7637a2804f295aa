// The replica cluster of one benchmark session, run in a forked child.
//
// The parent drives it over two pipes. Control bytes (parent -> child):
//   'W'  window start: take the first reading, answer "ACK"
//   'E'  window end: take the second reading, answer one "STATS k=v ..."
//        line of window deltas and gate counters
//   'Q'  (or EOF) stop every replica and exit 0
// Status lines (child -> parent): "READY" once all replicas listen and run,
// then one answer per control byte.
#pragma once

#include <array>
#include <cstdint>

#include "workload.hpp"

namespace perfbench {

struct ClusterSpec {
  ServiceKind service = ServiceKind::kNull;
  std::uint32_t max_active_proposals = 0;
  /// Wrap crypto, service and transport in the timing decorators.
  bool traced = false;
  std::array<std::uint16_t, kReplicas> ports{};
};

/// Child entry point; never returns.
[[noreturn]] void run_cluster(const ClusterSpec& spec, int ctl_fd,
                              int status_fd);

}  // namespace perfbench
