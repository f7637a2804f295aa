#include "cluster.hpp"

#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "app/null_service.hpp"
#include "common/metrics.hpp"
#include "common/time.hpp"
#include "core/cop_replica.hpp"
#include "crypto/provider.hpp"
#include "layers.hpp"
#include "protocol/types.hpp"
#include "stats.hpp"
#include "transport/tcp.hpp"

namespace perfbench {
namespace {

using namespace copbft;

constexpr const char* kLayerNames[kLayers] = {
    "mac",      "digest",       "execute", "pre_validate", "post_process",
    "snapshot", "state_digest", "send",    "sink"};

std::string replica_metric(std::uint32_t r, std::uint32_t p,
                           const char* name) {
  return "replica" + std::to_string(r) + ".pillar" + std::to_string(p) + "." +
         name;
}

/// Frames the replicas' ingress shed or dropped at their deadline, and
/// pushes that blocked a pillar thread, since the cluster started. The
/// lanes are the NP pillar lanes plus the state-transfer lane.
std::uint64_t ingress_dropped() {
  auto& reg = metrics::MetricsRegistry::global();
  std::uint64_t sum = 0;
  for (std::uint32_t n = 0; n < kReplicas; ++n)
    for (std::uint32_t lane = 0; lane <= kPillars; ++lane) {
      const std::string prefix = "tcp.node" + std::to_string(n) + ".lane" +
                                 std::to_string(lane) + ".";
      sum += reg.counter(prefix + "ingress_shed").value() +
             reg.counter(prefix + "ingress_deadline_drops").value();
    }
  return sum;
}

std::uint64_t blocked_pushes() {
  auto& reg = metrics::MetricsRegistry::global();
  std::uint64_t sum = 0;
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    for (std::uint32_t p = 0; p < kPillars; ++p)
      sum += reg.counter(replica_metric(r, p, "queue_blocked_pushes")).value();
  return sum;
}

/// Highest stable checkpoint any pillar of replica `r` has seen.
std::int64_t stable_seq(std::uint32_t r) {
  auto& reg = metrics::MetricsRegistry::global();
  std::int64_t best = 0;
  for (std::uint32_t p = 0; p < kPillars; ++p)
    best = std::max(best,
                    reg.gauge(replica_metric(r, p, "stable_seq")).value());
  return best;
}

std::uint64_t cpu_us(const rusage& usage) {
  const auto us = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

struct Reading {
  std::uint64_t at_us = 0;
  rusage usage{};
  std::uint64_t process_ticks = 0;
  std::map<int, ThreadSample> tasks;
  protocol::CoreStats core;
  core::ExecutionStats exec;
  std::array<std::int64_t, kReplicas> stable{};
  std::array<LayerTotals, kRoles> layers{};
  /// Host-wide CPU time and the part of it the hypervisor withheld
  /// (/proc/stat "steal"), in ticks.
  std::uint64_t host_total = 0;
  std::uint64_t host_steal = 0;
};

void read_host_cpu(std::uint64_t& total, std::uint64_t& steal) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    total = 0;
    for (unsigned long long x : v) total += x;
    steal = v[7];
  }
  std::fclose(f);
}

Reading take_reading(
    const std::vector<std::unique_ptr<core::CopReplica>>& replicas,
    bool traced) {
  Reading out;
  out.at_us = now_us();
  out.tasks = read_tasks("/proc/self/task");
  out.process_ticks = read_process_ticks("/proc/self/stat").value_or(0);
  ::getrusage(RUSAGE_SELF, &out.usage);
  for (std::uint32_t r = 0; r < replicas.size(); ++r) {
    const core::ReplicaStats stats = replicas[r]->stats();
    out.core += stats.core;
    out.exec.gap_fills_requested += stats.exec.gap_fills_requested;
    out.exec.replies_sent += stats.exec.replies_sent;
    out.exec.replies_offloaded += stats.exec.replies_offloaded;
    out.exec.reorder_slot_drops += stats.exec.reorder_slot_drops;
    out.stable[r] = stable_seq(r);
  }
  if (traced) out.layers = collect_layers();
  read_host_cpu(out.host_total, out.host_steal);
  return out;
}

class StatsLine {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    text_ += " " + key + "=" + buf;
  }
  void add_delta(const std::string& key, std::uint64_t before,
                 std::uint64_t after) {
    add(key, static_cast<double>(after - before));
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_ = "STATS";
};

std::string window_stats(const Reading& w, const Reading& e, bool traced) {
  StatsLine line;
  line.add_delta("window_us", w.at_us, e.at_us);
  line.add_delta("cpu_us", cpu_us(w.usage), cpu_us(e.usage));
  line.add("maxrss_kb", static_cast<double>(e.usage.ru_maxrss));
  line.add("vcsw", static_cast<double>(e.usage.ru_nvcsw - w.usage.ru_nvcsw));
  line.add("ivcsw",
           static_cast<double>(e.usage.ru_nivcsw - w.usage.ru_nivcsw));
  line.add("clk_tck", static_cast<double>(::sysconf(_SC_CLK_TCK)));
  line.add_delta("process_ticks", w.process_ticks, e.process_ticks);

  const auto roles = group_deltas(w.tasks, e.tasks);
  std::uint32_t threads = 0;
  for (std::size_t i = 0; i < kRoles; ++i) {
    const std::string role = role_name(static_cast<Role>(i));
    line.add(role + "_ticks", static_cast<double>(roles[i].ticks));
    line.add(role + "_max_ticks",
             static_cast<double>(roles[i].max_thread_ticks));
    line.add(role + "_vcsw", static_cast<double>(roles[i].voluntary));
    line.add(role + "_ivcsw", static_cast<double>(roles[i].involuntary));
    threads += roles[i].threads;
  }
  line.add("threads", threads);

  line.add_delta("requests_delivered", w.core.requests_delivered,
                 e.core.requests_delivered);
  line.add_delta("instances_delivered", w.core.instances_delivered,
                 e.core.instances_delivered);
  line.add_delta("noop_proposals", w.core.noop_proposals,
                 e.core.noop_proposals);
  line.add_delta("macs_verified", w.core.macs_verified, e.core.macs_verified);
  line.add_delta("verifications_skipped", w.core.verifications_skipped,
                 e.core.verifications_skipped);
  line.add_delta("checkpoints_stable", w.core.checkpoints_stable,
                 e.core.checkpoints_stable);
  line.add("view_changes_started",
           static_cast<double>(e.core.view_changes_started));
  line.add("view_changes_completed",
           static_cast<double>(e.core.view_changes_completed));
  line.add("host_steal_share",
           e.host_total > w.host_total
               ? static_cast<double>(e.host_steal - w.host_steal) /
                     static_cast<double>(e.host_total - w.host_total)
               : 0.0);
  line.add_delta("gap_fills", w.exec.gap_fills_requested,
                 e.exec.gap_fills_requested);
  line.add_delta("replies_sent", w.exec.replies_sent, e.exec.replies_sent);
  line.add_delta("replies_offloaded", w.exec.replies_offloaded,
                 e.exec.replies_offloaded);
  line.add_delta("reorder_slot_drops", w.exec.reorder_slot_drops,
                 e.exec.reorder_slot_drops);

  std::int64_t min_advance = e.stable[0] - w.stable[0];
  for (std::uint32_t r = 1; r < kReplicas; ++r)
    min_advance = std::min(min_advance, e.stable[r] - w.stable[r]);
  line.add("min_stable_advance", static_cast<double>(min_advance));
  line.add("ingress_dropped", static_cast<double>(ingress_dropped()));
  line.add("blocked_pushes", static_cast<double>(blocked_pushes()));

  if (traced) {
    LayerTotals before;
    LayerTotals after;
    for (std::size_t i = 0; i < kRoles; ++i) {
      const std::string role = role_name(static_cast<Role>(i));
      line.add_delta(role + "_top_ns", w.layers[i].top_ns, e.layers[i].top_ns);
      for (std::size_t l = 0; l < kLayers; ++l) {
        before.calls[l] += w.layers[i].calls[l];
        before.ns[l] += w.layers[i].ns[l];
        before.bytes[l] += w.layers[i].bytes[l];
        after.calls[l] += e.layers[i].calls[l];
        after.ns[l] += e.layers[i].ns[l];
        after.bytes[l] += e.layers[i].bytes[l];
      }
    }
    for (std::size_t l = 0; l < kLayers; ++l) {
      const std::string layer = kLayerNames[l];
      line.add_delta(layer + "_calls", before.calls[l], after.calls[l]);
      line.add_delta(layer + "_ns", before.ns[l], after.ns[l]);
      line.add_delta(layer + "_bytes", before.bytes[l], after.bytes[l]);
    }
  }
  return line.text();
}

std::unique_ptr<app::Service> make_service(ServiceKind kind,
                                           const crypto::CryptoProvider& c) {
  if (kind == ServiceKind::kKv) return std::make_unique<app::KvStore>(c);
  return std::make_unique<app::NullService>(kNullReplyBytes);
}

void say(int fd, const std::string& line) {
  const std::string text = line + "\n";
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

void run_cluster(const ClusterSpec& spec, int ctl_fd, int status_fd) {
  // The cluster must not outlive a parent that was killed mid-run.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  // Large buffers (16 MiB checkpoint snapshots and their artifacts) always
  // come from mmap and go back to the system on free. By default glibc
  // raises its mmap threshold after the first such free and keeps later
  // ones in per-thread arenas, which makes peak RSS depend on which thread
  // happened to free what rather than on what the replicas hold.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  const auto real_crypto = crypto::make_real_crypto(kKeySeed);
  std::optional<TimedCrypto> timed_crypto;
  if (spec.traced) timed_crypto.emplace(*real_crypto);
  const crypto::CryptoProvider& crypto =
      spec.traced ? static_cast<const crypto::CryptoProvider&>(*timed_crypto)
                  : *real_crypto;

  std::map<crypto::KeyNodeId, transport::TcpPeer> peers;
  for (protocol::ReplicaId r = 0; r < kReplicas; ++r)
    peers[protocol::replica_node(r)] = {"127.0.0.1", spec.ports[r]};
  transport::TcpOptions options;
  options.lane_threads = kPillars;

  // Every replica listens before any of them starts, so no dial has to
  // wait out a connect retry.
  std::vector<std::unique_ptr<transport::TcpTransport>> sockets;
  std::vector<std::unique_ptr<TimedTransport>> timed_sockets;
  for (protocol::ReplicaId r = 0; r < kReplicas; ++r) {
    sockets.push_back(std::make_unique<transport::TcpTransport>(
        protocol::replica_node(r), spec.ports[r], peers, options));
    if (!sockets.back()->start()) {
      say(status_fd, "ERROR cannot listen on port " +
                         std::to_string(spec.ports[r]));
      ::_exit(1);
    }
    if (spec.traced)
      timed_sockets.push_back(std::make_unique<TimedTransport>(*sockets[r]));
  }

  core::ReplicaRuntimeConfig config;
  config.num_pillars = kPillars;
  config.protocol.num_pillars = kPillars;
  config.protocol.max_active_proposals = spec.max_active_proposals;

  std::vector<std::unique_ptr<core::CopReplica>> replicas;
  for (protocol::ReplicaId r = 0; r < kReplicas; ++r) {
    std::unique_ptr<app::Service> service = make_service(spec.service, crypto);
    if (spec.traced)
      service = std::make_unique<TimedService>(std::move(service));
    transport::Transport& transport =
        spec.traced ? static_cast<transport::Transport&>(*timed_sockets[r])
                    : *sockets[r];
    replicas.push_back(std::make_unique<core::CopReplica>(
        r, config, std::move(service), crypto, transport));
  }
  for (auto& replica : replicas) replica->start();
  say(status_fd, "READY");

  std::optional<Reading> window_start;
  while (true) {
    char command = 'Q';
    const ssize_t n = ::read(ctl_fd, &command, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || command == 'Q') break;
    if (command == 'W') {
      window_start = take_reading(replicas, spec.traced);
      say(status_fd, "ACK");
    } else if (command == 'E' && window_start) {
      const Reading window_end = take_reading(replicas, spec.traced);
      say(status_fd, window_stats(*window_start, window_end, spec.traced));
    } else {
      say(status_fd, "ERROR unexpected control byte");
    }
  }

  for (auto& replica : replicas) replica->stop();
  for (auto& socket : sockets) socket->shutdown();
  // A forked child must not run the parent's atexit handlers.
  ::_exit(0);
}

}  // namespace perfbench
