// Event-loop ingress soak: thousands of concurrent TCP clients against a
// four-replica COP cluster, measured as three cells at equal offered load:
//
//   few_clients   4 clients with deep windows — the classic benchmark
//                 shape (one connection per client, high in-flight).
//   many_clients  SOAK_CLIENTS thin clients, window 4 — the production
//                 shape the event-loop ingress exists for: each client
//                 dials every replica, so a replica carries SOAK_CLIENTS
//                 accepted sockets on its NP lane threads.
//   overload      offered load deliberately past the cluster's execution
//                 capacity with tiny pillar queues and a tight ingress
//                 retry budget — admission must shed at ingress
//                 (ingress_shed > 0) while pillar queues never see a
//                 blocking push (queue_blocked_pushes delta stays 0).
//
// Two processes: the fork happens before any thread exists. The child
// hosts the replica cluster (its transports, pillars, exec stages); the
// parent hosts the client fleet — thread-less mini-clients multiplexed as
// endpoints over one TcpTransport, driven entirely by the transport's
// lane threads (replies complete on the loop thread that read them, which
// immediately seals and sends the next request). With the default
// SOAK_CLIENTS=2500 the many_clients cell holds 10,000 concurrent client
// connections (2500 per replica accepted, 10,000 dialed in the parent),
// inside the 20,000-fd rlimit on each side.
//
// Emits BENCH_ingress.json and exits non-zero unless it passes the gates
// of support/bench_gates.hpp (the ones bench/validate_bench_json applies).
// Environment knobs, reduced in CI's bench-smoke job:
//   COP_SOAK_CLIENTS      fleet size of many_clients (default 2500)
//   COP_SOAK_MEASURE_MS   measurement window per cell (default 5000)
//   COP_SOAK_WARMUP_MS    warm-up before measuring   (default 1500)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/null_service.hpp"
#include "common/metrics.hpp"
#include "common/threading.hpp"
#include "common/time.hpp"
#include "core/cop_replica.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/provider.hpp"
#include "protocol/messages.hpp"
#include "protocol/types.hpp"
#include "protocol/wire.hpp"
#include "support/bench_gates.hpp"
#include "transport/tcp.hpp"

using namespace copbft;

namespace {

constexpr std::uint64_t kSeed = 5;
constexpr std::uint32_t kReplicas = 4;
constexpr std::uint32_t kPillars = 2;
constexpr std::uint32_t kMaxFaulty = 1;
// Below 32768, outside the kernel's default ephemeral port range, where
// the TIME-WAIT sockets of earlier dials could hold a listen port.
constexpr std::uint16_t kBasePort = 23200;
/// The parent transport's own identity; endpoints dial with their own.
constexpr crypto::KeyNodeId kMuxNode = 2'000'000;

std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (!v || !*v) return def;
  return std::strtoull(v, nullptr, 10);
}

/// NullService plus a deterministic per-request busy-wait: the overload
/// cell needs execution to be the bottleneck so offered load provably
/// exceeds capacity and admission control has something to shed.
class SpinService final : public app::Service {
 public:
  SpinService(std::uint64_t spin_us, std::size_t reply_size)
      : spin_us_(spin_us), inner_(reply_size) {}

  Bytes execute(const protocol::Request& request) override {
    if (spin_us_ > 0) {
      const std::uint64_t until = now_us() + spin_us_;
      while (now_us() < until) {
      }
    }
    return inner_.execute(request);
  }
  crypto::Digest state_digest() const override { return inner_.state_digest(); }
  Bytes snapshot() const override { return inner_.snapshot(); }
  bool restore(ByteSpan snapshot, const crypto::Digest& expect) override {
    return inner_.restore(snapshot, expect);
  }

 private:
  const std::uint64_t spin_us_;
  app::NullService inner_;
};

struct Cell {
  const char* name;
  std::uint32_t clients;
  std::uint32_t window;
  // Replica-side knobs the cell forces.
  std::size_t queue_capacity;
  std::size_t ingress_retry_budget;
  std::uint64_t ingress_retry_deadline_us;
  std::uint64_t exec_spin_us;
  /// Client resend timer. Nominal cells never lose a request (admission
  /// does not shed, TCP does not drop), so their timer is set far past
  /// the run length — retransmits there would only measure the storm,
  /// not the ingress. The overload cell sheds by design and needs
  /// resends to make progress.
  std::uint64_t resend_us;
  /// Offered rate in ops/s; 0 = unconstrained closed loop. The nominal
  /// cells compare the two fleet shapes at the same offered rate, chosen
  /// below the cluster's saturation point — uncapped, the comparison
  /// measures loopback syscall cost (10,000 thin sockets vs 16 deep
  /// ones), not the ingress. The overload cell stays uncapped: it exists
  /// to exceed capacity.
  std::uint64_t rate_ops;
};

struct ChildStats {
  std::uint64_t ingress_accepted = 0;
  std::uint64_t ingress_shed = 0;
  std::uint64_t ingress_deadline_drops = 0;
  std::uint64_t blocked_delta = 0;
  long long peak_conns = 0;
};

struct CellResult {
  Cell cell;
  std::uint64_t completed = 0;
  std::uint64_t retransmissions = 0;
  double measure_s = 0;
  double throughput = 0;
  ChildStats child;
};

void raise_fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
}

// ---------------------------------------------------------------------------
// Child: the replica cluster. Runs until the parent writes a byte on the
// control pipe, then reports transport/pillar counters over the status
// pipe and exits without returning (a forked child must not unwind the
// parent's atexit state).
// ---------------------------------------------------------------------------

std::uint64_t sum_counters(const char* fmt_suffix) {
  auto& reg = metrics::MetricsRegistry::global();
  std::uint64_t sum = 0;
  for (std::uint32_t n = 0; n < kReplicas; ++n)
    for (std::uint32_t lane = 0; lane <= kPillars; ++lane)
      sum += reg.counter("tcp.node" + std::to_string(n) + ".lane" +
                         std::to_string(lane) + "." + fmt_suffix)
                 .value();
  return sum;
}

std::uint64_t sum_blocked_pushes() {
  auto& reg = metrics::MetricsRegistry::global();
  std::uint64_t sum = 0;
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    for (std::uint32_t p = 0; p < kPillars; ++p)
      sum += reg.counter("replica" + std::to_string(r) + ".pillar" +
                         std::to_string(p) + ".queue_blocked_pushes")
                 .value();
  return sum;
}

[[noreturn]] void run_cluster(const Cell& cell, std::uint16_t base_port,
                              int ctl_fd, int status_fd) {
  auto crypto = crypto::make_real_crypto(kSeed);

  std::map<crypto::KeyNodeId, transport::TcpPeer> peers;
  for (protocol::ReplicaId r = 0; r < kReplicas; ++r)
    peers[protocol::replica_node(r)] = {
        "127.0.0.1", static_cast<std::uint16_t>(base_port + r)};

  transport::TcpOptions topt;
  topt.lane_threads = kPillars;
  topt.loop.ingress_retry_budget = cell.ingress_retry_budget;
  topt.loop.ingress_retry_deadline_us = cell.ingress_retry_deadline_us;

  std::vector<std::unique_ptr<transport::TcpTransport>> transports;
  for (protocol::ReplicaId r = 0; r < kReplicas; ++r) {
    transports.push_back(std::make_unique<transport::TcpTransport>(
        protocol::replica_node(r), static_cast<std::uint16_t>(base_port + r),
        peers, topt));
    if (!transports.back()->start()) {
      dprintf(status_fd, "ERROR listen %u\n", base_port + r);
      _exit(1);
    }
  }

  core::ReplicaRuntimeConfig config;
  config.num_pillars = kPillars;
  config.protocol.num_pillars = kPillars;
  config.protocol.checkpoint_interval = 100;
  config.protocol.window = 400;
  config.queue_capacity = cell.queue_capacity;

  std::vector<std::unique_ptr<core::CopReplica>> replicas;
  for (protocol::ReplicaId r = 0; r < kReplicas; ++r) {
    replicas.push_back(std::make_unique<core::CopReplica>(
        r, config,
        std::make_unique<SpinService>(cell.exec_spin_us, /*reply_size=*/32),
        *crypto, *transports[r]));
    replicas.back()->start();
  }

  const std::uint64_t blocked_before = sum_blocked_pushes();
  dprintf(status_fd, "READY\n");

  char byte;
  while (read(ctl_fd, &byte, 1) < 0 && errno == EINTR) {
  }

  // Snapshot while everything is still connected so the accepted-conns
  // gauge reflects the sustained plateau, not teardown.
  auto& reg = metrics::MetricsRegistry::global();
  long long peak = 0;
  for (std::uint32_t n = 0; n < kReplicas; ++n)
    peak += reg.gauge("tcp.node" + std::to_string(n) + ".accepted_conns").max();
  dprintf(status_fd,
          "STATS accepted=%" PRIu64 " shed=%" PRIu64 " ddrops=%" PRIu64
          " blocked=%" PRIu64 " conns=%lld\n",
          sum_counters("ingress_accepted"), sum_counters("ingress_shed"),
          sum_counters("ingress_deadline_drops"),
          sum_blocked_pushes() - blocked_before, peak);

  for (auto& replica : replicas) replica->stop();
  for (auto& transport : transports) transport->shutdown();
  _exit(0);
}

// ---------------------------------------------------------------------------
// Parent: the client fleet. No per-client thread — each mini-client is a
// multiplexed endpoint whose replies arrive on the shared transport's
// lane threads; the reply handler seals and sends the next request
// inline, so the closed loop runs entirely on the event loops.
// ---------------------------------------------------------------------------

struct MiniClient {
  protocol::ClientId id = 0;
  transport::LaneId lane = 0;
  std::shared_ptr<transport::Transport> endpoint;

  struct Pend {
    Bytes frame;
    std::uint32_t voters_seen = 0;
    std::uint32_t votes = 0;
    crypto::Digest digest;
    bool has_digest = false;
    std::uint64_t sent_at_us = 0;
  };
  Mutex mutex;
  std::unordered_map<protocol::RequestId, Pend> inflight COP_GUARDED_BY(mutex);
  protocol::RequestId next_id COP_GUARDED_BY(mutex) = 1;
};

struct Fleet {
  std::deque<MiniClient> clients;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> retransmissions{0};
  std::atomic<bool> stopped{false};
  const crypto::CryptoProvider* crypto = nullptr;
  std::vector<crypto::KeyNodeId> recipients;
  /// Rate pacing (rate_ops > 0): completions park their client here and
  /// the main thread re-issues at the offered rate.
  bool paced = false;
  Mutex ready_mutex;
  std::deque<std::size_t> ready COP_GUARDED_BY(ready_mutex);

  Bytes seal(protocol::ClientId client, protocol::RequestId rid) const {
    protocol::Request req{client, rid, /*flags=*/0,
                          Bytes(16, static_cast<Byte>(client & 0xff)),
                          {}};
    Bytes body = protocol::request_authenticated_bytes(req);
    req.auth = crypto::Authenticator::build(
        *crypto, protocol::client_node(client), recipients, ByteSpan{body});
    protocol::WireWriter w(body);
    w.authenticator(req.auth);
    return body;
  }

  void send_to_all(MiniClient& mc, const Bytes& frame) {
    for (std::uint32_t r = 0; r < kReplicas; ++r)
      mc.endpoint->send(protocol::replica_node(r), mc.lane, frame);
  }

  /// Issues the next request of `mc`'s closed loop (caller must NOT hold
  /// the client mutex; sends happen outside it).
  void issue_next(MiniClient& mc, std::uint64_t now) {
    Bytes frame;
    {
      MutexLock lock(mc.mutex);
      protocol::RequestId rid = mc.next_id++;
      frame = seal(mc.id, rid);
      MiniClient::Pend& p = mc.inflight[rid];
      p.frame = frame;
      p.sent_at_us = now;
    }
    send_to_all(mc, frame);
  }

  /// A Reply frame for client index `idx`; counts f+1 matching votes.
  void on_reply(std::size_t idx, const protocol::Reply& reply) {
    MiniClient& mc = clients[idx];
    bool stable = false;
    {
      MutexLock lock(mc.mutex);
      auto it = mc.inflight.find(reply.id);
      if (it == mc.inflight.end()) return;
      MiniClient::Pend& p = it->second;
      const std::uint32_t bit = 1u << reply.replica;
      if (p.voters_seen & bit) return;
      p.voters_seen |= bit;
      crypto::Digest d = crypto->digest(reply.result);
      if (!p.has_digest) {
        p.digest = d;
        p.has_digest = true;
      }
      if (!(d == p.digest)) return;  // divergent result; Byzantine-free here
      if (++p.votes < kMaxFaulty + 1) return;
      mc.inflight.erase(it);
      stable = true;
    }
    if (!stable) return;
    completed.fetch_add(1, std::memory_order_relaxed);
    if (stopped.load(std::memory_order_relaxed)) return;
    if (!paced) {
      issue_next(mc, now_us());
      return;
    }
    MutexLock lock(ready_mutex);
    ready.push_back(idx);
  }

  /// Paced mode: issues up to `tokens` parked clients (main thread).
  std::uint64_t issue_ready(std::uint64_t tokens, std::uint64_t now) {
    std::uint64_t issued = 0;
    while (issued < tokens) {
      std::size_t idx;
      {
        MutexLock lock(ready_mutex);
        if (ready.empty()) break;
        idx = ready.front();
        ready.pop_front();
      }
      issue_next(clients[idx], now);
      ++issued;
    }
    return issued;
  }

  /// Resends requests outstanding longer than `resend_us` (main thread).
  void retransmit_sweep(std::uint64_t now, std::uint64_t resend_us) {
    for (MiniClient& mc : clients) {
      std::vector<Bytes> frames;
      {
        MutexLock lock(mc.mutex);
        for (auto& [rid, p] : mc.inflight) {
          // sent_at may postdate `now`: loop threads issue concurrently
          // with this sweep, and an unsigned underflow here would resend
          // a request that is microseconds old.
          if (p.sent_at_us >= now || now - p.sent_at_us < resend_us) continue;
          p.sent_at_us = now;
          frames.push_back(p.frame);
        }
      }
      if (frames.empty()) continue;
      retransmissions.fetch_add(frames.size(), std::memory_order_relaxed);
      for (const Bytes& frame : frames) send_to_all(mc, frame);
    }
  }
};

/// One sink shared by every endpoint: replies are dispatched by the
/// client id inside the Reply message, on the loop thread that read them.
class FleetSink final : public transport::FrameSink {
 public:
  explicit FleetSink(Fleet& fleet) : fleet_(fleet) {}

  bool deliver(transport::ReceivedFrame frame) override {
    handle(frame);
    return true;
  }
  transport::Admit try_deliver(transport::ReceivedFrame& frame) override {
    handle(frame);
    return transport::Admit::kAdmitted;
  }
  void close() override {}  // shared across endpoints; fleet owns lifetime

 private:
  void handle(transport::ReceivedFrame& frame) {
    auto decoded = protocol::decode_message(frame.bytes);
    if (!decoded) return;
    auto* reply = std::get_if<protocol::Reply>(&decoded->msg);
    if (!reply || reply->replica >= kReplicas) return;
    if (reply->client < protocol::kClientIdBase) return;
    const std::size_t idx = reply->client - protocol::kClientIdBase;
    if (idx >= fleet_.clients.size()) return;
    // The harness trusts the loopback cluster and skips MAC verification:
    // the bench measures ingress, not client-side crypto throughput.
    fleet_.on_reply(idx, *reply);
  }

  Fleet& fleet_;
};

CellResult run_cell(const Cell& cell, std::uint16_t base_port,
                    std::uint64_t warmup_ms, std::uint64_t measure_ms) {
  CellResult result;
  result.cell = cell;

  int ctl[2], status[2];
  if (pipe(ctl) != 0 || pipe(status) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    std::exit(1);
  }

  // Fork before any thread exists in this process (each previous cell
  // joined all its transport threads in shutdown()).
  pid_t child = fork();
  if (child < 0) {
    std::fprintf(stderr, "fork: %s\n", std::strerror(errno));
    std::exit(1);
  }
  if (child == 0) {
    close(ctl[1]);
    close(status[0]);
    run_cluster(cell, base_port, ctl[0], status[1]);
  }
  close(ctl[0]);
  close(status[1]);

  FILE* status_in = fdopen(status[0], "r");
  char line[256];
  if (!fgets(line, sizeof line, status_in) ||
      std::strncmp(line, "READY", 5) != 0) {
    std::fprintf(stderr, "cell %s: cluster failed to start: %s\n", cell.name,
                 line);
    std::exit(1);
  }

  auto crypto = crypto::make_real_crypto(kSeed);
  Fleet fleet;
  fleet.crypto = crypto.get();
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    fleet.recipients.push_back(protocol::replica_node(r));

  std::map<crypto::KeyNodeId, transport::TcpPeer> peers;
  for (protocol::ReplicaId r = 0; r < kReplicas; ++r)
    peers[protocol::replica_node(r)] = {
        "127.0.0.1", static_cast<std::uint16_t>(base_port + r)};

  transport::TcpOptions topt;
  topt.lane_threads = kPillars;
  auto mux = std::make_unique<transport::TcpTransport>(kMuxNode,
                                                       /*listen_port=*/0,
                                                       peers, topt);
  if (!mux->start()) {
    std::fprintf(stderr, "cell %s: client transport failed to start\n",
                 cell.name);
    std::exit(1);
  }

  auto sink = std::make_shared<FleetSink>(fleet);
  for (std::uint32_t i = 0; i < cell.clients; ++i) {
    MiniClient& mc = fleet.clients.emplace_back();
    mc.id = protocol::kClientIdBase + i;
    mc.lane = mc.id % kPillars;
    mc.endpoint = mux->client_endpoint(protocol::client_node(mc.id));
    mc.endpoint->register_sink(/*lane=*/0, sink);
  }

  // Prime every client's window. Unpaced cells burst it out and let the
  // loop threads keep it full; paced cells park the slots in the ready
  // queue so the offered rate governs from the very first request (a
  // 10,000-request burst would take seconds to drain to steady state and
  // eat the warmup).
  fleet.paced = cell.rate_ops > 0;
  if (fleet.paced) {
    MutexLock lock(fleet.ready_mutex);
    for (std::uint32_t w = 0; w < cell.window; ++w)
      for (std::size_t i = 0; i < fleet.clients.size(); ++i)
        fleet.ready.push_back(i);
  } else {
    for (MiniClient& mc : fleet.clients)
      for (std::uint32_t w = 0; w < cell.window; ++w)
        fleet.issue_next(mc, now_us());
  }

  auto run_for = [&](std::uint64_t ms) {
    const std::uint64_t until = now_us() + ms * 1000;
    double tokens = 0;
    std::uint64_t last = now_us();
    std::uint64_t last_sweep = last;
    while (now_us() < until) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fleet.paced ? 10 : 100));
      std::uint64_t now = now_us();
      if (fleet.paced) {
        tokens += static_cast<double>(cell.rate_ops) *
                  static_cast<double>(now - last) / 1e6;
        last = now;
        // Never bank more than one second of tokens: a stall must not
        // turn into a burst that the rate cap exists to prevent.
        tokens = std::min(tokens, static_cast<double>(cell.rate_ops));
        tokens -= static_cast<double>(
            fleet.issue_ready(static_cast<std::uint64_t>(tokens), now));
      }
      if (now - last_sweep >= 100'000) {
        fleet.retransmit_sweep(now, cell.resend_us);
        last_sweep = now;
      }
    }
  };

  run_for(warmup_ms);
  const std::uint64_t t0 = now_us();
  const std::uint64_t c0 = fleet.completed.load();
  run_for(measure_ms);
  const std::uint64_t t1 = now_us();
  const std::uint64_t c1 = fleet.completed.load();
  fleet.stopped.store(true);

  result.completed = c1 - c0;
  result.measure_s = static_cast<double>(t1 - t0) / 1e6;
  result.throughput = static_cast<double>(result.completed) / result.measure_s;
  result.retransmissions = fleet.retransmissions.load();

  // Ask the cluster for its counters while all connections are still up.
  (void)!write(ctl[1], "S", 1);
  if (fgets(line, sizeof line, status_in) &&
      std::strncmp(line, "STATS ", 6) == 0) {
    std::sscanf(line,
                "STATS accepted=%" SCNu64 " shed=%" SCNu64 " ddrops=%" SCNu64
                " blocked=%" SCNu64 " conns=%lld",
                &result.child.ingress_accepted, &result.child.ingress_shed,
                &result.child.ingress_deadline_drops,
                &result.child.blocked_delta, &result.child.peak_conns);
  } else {
    std::fprintf(stderr, "cell %s: no STATS from cluster\n", cell.name);
    std::exit(1);
  }
  fclose(status_in);
  close(ctl[1]);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);

  for (MiniClient& mc : fleet.clients) mc.endpoint->shutdown();
  mux->shutdown();

  std::printf(
      "%-12s clients=%-6u window=%-5u inflight=%-6u -> %8.0f ops/s "
      "(completed=%" PRIu64 ", retrans=%" PRIu64 ", shed=%" PRIu64
      ", ddrops=%" PRIu64 ", blocked_delta=%" PRIu64 ", peak_conns=%lld)\n",
      cell.name, cell.clients, cell.window, cell.clients * cell.window,
      result.throughput, result.completed, result.retransmissions,
      result.child.ingress_shed, result.child.ingress_deadline_drops,
      result.child.blocked_delta, result.child.peak_conns);
  return result;
}

std::string to_json(const std::vector<CellResult>& results,
                    std::uint64_t soak_clients, std::uint64_t warmup_ms,
                    std::uint64_t measure_ms) {
  std::ostringstream out;
  out << "{\n"
      << "  \"figure\":\"ingress_soak\",\n"
      << "  \"replicas\":" << kReplicas << ",\n"
      << "  \"pillars\":" << kPillars << ",\n"
      << "  \"soak_clients\":" << soak_clients << ",\n"
      << "  \"warmup_ms\":" << warmup_ms << ",\n"
      << "  \"measure_ms\":" << measure_ms << ",\n"
      << "  \"cells\":[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    out << "    {\"cell\":\"" << r.cell.name << "\""
        << ",\"clients\":" << r.cell.clients
        << ",\"window\":" << r.cell.window
        << ",\"inflight\":" << r.cell.clients * r.cell.window
        << ",\"connections\":" << r.cell.clients * kReplicas
        << ",\"offered_rate_ops\":" << r.cell.rate_ops
        << ",\"queue_capacity\":" << r.cell.queue_capacity
        << ",\"ingress_retry_budget\":" << r.cell.ingress_retry_budget
        << ",\"exec_spin_us\":" << r.cell.exec_spin_us
        << ",\"throughput_ops\":" << r.throughput
        << ",\"completed_ops\":" << r.completed
        << ",\"retransmissions\":" << r.retransmissions
        << ",\"ingress_accepted\":" << r.child.ingress_accepted
        << ",\"ingress_shed\":" << r.child.ingress_shed
        << ",\"ingress_deadline_drops\":" << r.child.ingress_deadline_drops
        << ",\"pillar_blocked_pushes_delta\":" << r.child.blocked_delta
        << ",\"peak_accepted_conns\":" << r.child.peak_conns << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main() {
  raise_fd_limit();

  const std::uint64_t soak_clients = env_u64("COP_SOAK_CLIENTS", 2500);
  const std::uint64_t warmup_ms = env_u64("COP_SOAK_WARMUP_MS", 1500);
  const std::uint64_t measure_ms = env_u64("COP_SOAK_MEASURE_MS", 5000);
  const std::uint64_t rate_ops = env_u64("COP_SOAK_RATE", 2500);

  // Equal offered load across the nominal cells: clients * window is the
  // same; only the connection count changes.
  const std::uint32_t many = static_cast<std::uint32_t>(soak_clients);
  const std::uint32_t inflight = many * 4;
  const std::uint32_t overload_clients =
      std::min<std::uint32_t>(256, std::max<std::uint32_t>(8, many));

  const Cell cells[] = {
      {"few_clients", 4, inflight / 4, /*queue_capacity=*/1u << 15,
       /*retry_budget=*/1u << 15, /*retry_deadline_us=*/100'000,
       /*spin_us=*/0, /*resend_us=*/600'000'000, rate_ops},
      {"many_clients", many, 4, /*queue_capacity=*/1u << 15,
       /*retry_budget=*/1u << 15, /*retry_deadline_us=*/100'000,
       /*spin_us=*/0, /*resend_us=*/600'000'000, rate_ops},
      {"overload", overload_clients, 16, /*queue_capacity=*/64,
       /*retry_budget=*/64, /*retry_deadline_us=*/2'000,
       /*spin_us=*/300, /*resend_us=*/500'000, /*rate_ops=*/0},
  };

  std::vector<CellResult> results;
  std::uint16_t port = kBasePort;
  for (const Cell& cell : cells) {
    results.push_back(run_cell(cell, port, warmup_ms, measure_ms));
    port = static_cast<std::uint16_t>(port + 8);
  }

  const std::string text =
      to_json(results, soak_clients, warmup_ms, measure_ms);
  const std::optional<json::Value> doc = json::parse(text);
  if (!doc) {
    std::fprintf(stderr, "FAIL: emitted JSON is invalid\n");
    return 1;
  }
  std::ofstream("BENCH_ingress.json") << text;
  std::printf("wrote BENCH_ingress.json\n");
  const std::vector<std::string> failures = bench::check_gates(*doc);
  for (const std::string& failure : failures)
    std::fprintf(stderr, "FAIL %s\n", failure.c_str());
  return failures.empty() ? 0 : 1;
}
