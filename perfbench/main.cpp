// Closed-loop benchmark of a 4-replica COP cluster over loopback TCP.
//
//   copbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each session forks the cluster (N=4, f=1, NP=2, real HMAC, TcpTransport,
// no injected delay: latency is processor and scheduling time only) into a
// child process and drives it from this process through client::Client
// over TcpTransport::client_endpoint: two client identities, one per
// pillar lane, each holding a fixed window of asynchronous requests. The
// generator's inputs come only from --seed.
//
// --trace 0 runs Workload::sessions undecorated clusters one after another,
// each measured for an equal share of --seconds: a fresh cluster lands its
// threads on the cores differently every time, so a run reports latency
// percentiles over the pooled samples and the median of every other
// end-to-end metric. Sessions the host disturbed are replaced within a
// budget (run_steady_sessions). --trace 1 splits --seconds between an
// undecorated session and one whose crypto, service and transport are
// wrapped in timing decorators (layers.hpp), and reports the per-layer
// metrics of the second plus the throughput cost of tracing.
//
// Every run applies the correctness gate (run_session, gate_window). The
// last line of stdout is one JSON object; the exit code is 0 only if the
// gate held.
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_store.hpp"
#include "client/client.hpp"
#include "cluster.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "common/time.hpp"
#include "crypto/provider.hpp"
#include "protocol/types.hpp"
#include "stats.hpp"
#include "transport/tcp.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace copbft;

/// The client-side transport's own identity; clients dial with theirs.
constexpr crypto::KeyNodeId kMuxNode = 2'000'000;
// Deadlines that keep a stuck cluster from stalling a run: ops still
// outstanding this long after the window count as failed, and a set-up
// step that overruns its deadline fails the run.
constexpr std::uint64_t kDrainUs = 10'000'000;
constexpr std::uint64_t kFirstOpUs = 10'000'000;
constexpr std::uint64_t kPreloadUs = 60'000'000;
constexpr std::uint64_t kExitUs = 20'000'000;
/// A session whose window lost more than this share of the host's CPU to
/// the hypervisor is replaced if the run's session budget allows.
constexpr double kMaxSteal = 0.01;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint32_t seconds = 0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(value, &end, 10);
    const bool numeric = *value != '\0' && *end == '\0' && errno == 0;
    if (flag == "--workload") {
      args.workload = find_workload(value);
      have[0] = args.workload != nullptr;
    } else if (flag == "--seed" && numeric) {
      args.seed = n;
      have[1] = true;
    } else if (flag == "--seconds" && numeric && n >= 1 && n <= 600) {
      args.seconds = static_cast<std::uint32_t>(n);
      have[2] = true;
    } else if (flag == "--trace" && numeric && n <= 1) {
      args.trace = n == 1;
      have[3] = true;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3]))
    return std::nullopt;
  return args;
}

/// Four ports the kernel reports free; the child binds them right away.
std::optional<std::array<std::uint16_t, kReplicas>> pick_ports() {
  std::array<std::uint16_t, kReplicas> ports{};
  std::array<int, kReplicas> fds{};
  fds.fill(-1);
  bool ok = true;
  for (std::uint32_t r = 0; r < kReplicas && ok; ++r) {
    fds[r] = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    socklen_t len = sizeof addr;
    ok = fds[r] >= 0 &&
         ::bind(fds[r], reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
             0 &&
         ::getsockname(fds[r], reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    if (ok) ports[r] = ntohs(addr.sin_port);
  }
  for (int fd : fds)
    if (fd >= 0) ::close(fd);
  if (!ok) return std::nullopt;
  return ports;
}

double cpu_us(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
             1e6 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------------
// The cluster child, seen from the parent.

class ClusterProcess {
 public:
  ClusterProcess() = default;
  ClusterProcess(const ClusterProcess&) = delete;
  ClusterProcess& operator=(const ClusterProcess&) = delete;
  ~ClusterProcess() {
    if (status_) std::fclose(status_);
    if (ctl_ >= 0) ::close(ctl_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  /// Forks the cluster; the caller must have no other threads running.
  bool start(const ClusterSpec& spec, std::string& error) {
    int ctl[2];
    int status[2];
    if (::pipe(ctl) != 0) {
      error = "pipe failed";
      return false;
    }
    if (::pipe(status) != 0) {
      ::close(ctl[0]);
      ::close(ctl[1]);
      error = "pipe failed";
      return false;
    }
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) {
      error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      ::close(ctl[1]);
      ::close(status[0]);
      run_cluster(spec, ctl[0], status[1]);
    }
    ::close(ctl[0]);
    ::close(status[1]);
    ctl_ = ctl[1];
    status_ = ::fdopen(status[0], "r");
    const std::string ready = read_line();
    if (ready != "READY") {
      error = "cluster did not start: " + ready;
      return false;
    }
    return true;
  }

  /// Sends one control byte and returns the child's answer ("" on EOF).
  std::string command(char byte) {
    if (::write(ctl_, &byte, 1) != 1) return "";
    return read_line();
  }

  /// Asks the cluster to stop; returns its wait status, or -1 if it did
  /// not exit within kExitUs (it is killed then).
  int finish() {
    if (pid_ <= 0) return -1;
    const char quit = 'Q';
    (void)!::write(ctl_, &quit, 1);
    ::close(ctl_);
    ctl_ = -1;
    const std::uint64_t deadline = now_us() + kExitUs;
    int wstatus = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &wstatus, WNOHANG)) == 0 &&
           now_us() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (done != pid_) return -1;  // the destructor kills and reaps it
    pid_ = -1;
    return wstatus;
  }

 private:
  std::string read_line() {
    if (!status_) return "";
    std::string line;
    int c;
    while ((c = std::fgetc(status_)) != EOF && c != '\n')
      line.push_back(static_cast<char>(c));
    return line;
  }

  pid_t pid_ = -1;
  int ctl_ = -1;
  FILE* status_ = nullptr;
};

std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> out;
  std::size_t at = line.find(' ');
  while (at != std::string::npos) {
    const std::size_t next = line.find(' ', at + 1);
    const std::string field = line.substr(at + 1, next - at - 1);
    const std::size_t eq = field.find('=');
    if (eq != std::string::npos)
      out[field.substr(0, eq)] = std::strtod(field.c_str() + eq + 1, nullptr);
    at = next;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The closed-loop generator.

enum class OpKind : std::uint8_t { kNull, kGet, kPut, kPreload };

struct Op {
  OpKind kind = OpKind::kNull;
  std::uint32_t key = 0;
  Bytes payload;
};

/// The 1 KiB value every put writes to `key`: a function of the seed and
/// the key only, so a get returns it whatever order the puts ran in.
Bytes kv_value(std::uint64_t seed, std::uint32_t key) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + key);
  Bytes value(kKvValueBytes);
  for (std::size_t i = 0; i < value.size(); i += 8) {
    const std::uint64_t word = rng();
    for (std::size_t b = 0; b < 8 && i + b < value.size(); ++b)
      value[i + b] = static_cast<Byte>(word >> (8 * b));
  }
  return value;
}

std::string kv_key(std::uint32_t key) { return "key-" + std::to_string(key); }

class LoadGen {
 public:
  LoadGen(const Workload& workload, std::uint64_t seed)
      : workload_(workload), seed_(seed) {}
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  ~LoadGen() { stop(); }

  bool connect(const std::array<std::uint16_t, kReplicas>& ports) {
    std::map<crypto::KeyNodeId, transport::TcpPeer> peers;
    for (protocol::ReplicaId r = 0; r < kReplicas; ++r)
      peers[protocol::replica_node(r)] = {"127.0.0.1", ports[r]};
    transport::TcpOptions options;
    // Main + two client threads + one loop: the generator never needs
    // more threads than this host has cores.
    options.lane_threads = 1;
    mux_ = std::make_unique<transport::TcpTransport>(kMuxNode, 0, peers,
                                                     options);
    if (!mux_->start()) return false;
    crypto_ = crypto::make_real_crypto(kKeySeed);
    for (std::uint32_t i = 0; i < kClients; ++i) {
      auto lane = std::make_unique<Lane>();
      client::ClientConfig config;
      config.id = protocol::kClientIdBase + i;
      config.num_replicas = kReplicas;
      config.max_faulty = kMaxFaulty;
      config.num_pillars = kPillars;
      config.window = workload_.window;
      lane->endpoint = mux_->client_endpoint(protocol::client_node(config.id));
      lane->client = std::make_unique<client::Client>(config, *crypto_,
                                                      *lane->endpoint);
      lane->rng = Rng(seed_ * 0x2545f4914f6cdd1dULL + i + 1);
      // Preload splits the key space between the clients.
      lane->preload_next = i * kKvKeys / kClients;
      lane->preload_end = (i + 1) * kKvKeys / kClients;
      lane->client->start();
      lanes_.push_back(std::move(lane));
    }
    return true;
  }

  /// Writes every key once, through both clients' windows.
  bool preload() {
    phase_.store(Phase::kPreload);
    for (auto& lane : lanes_)
      for (std::uint32_t w = 0; w < workload_.window; ++w)
        issue(*lane, Phase::kPreload);
    const std::uint64_t deadline = now_us() + kPreloadUs;
    while (preload_done_.load() < kKvKeys && now_us() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return preload_done_.load() == kKvKeys && preload_bad_.load() == 0;
  }

  /// One op from the workload, waited for; true if stable and correct.
  bool first_op() {
    phase_.store(Phase::kIdle);
    issue(*lanes_[0], Phase::kIdle);
    const std::uint64_t deadline = now_us() + kFirstOpUs;
    while (ledger_.outstanding() > 0 && now_us() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    return ledger_.outstanding() == 0 && ledger_.wrong() == 0;
  }

  void start_loop() {
    phase_.store(Phase::kLoop);
    for (auto& lane : lanes_)
      for (std::uint32_t w = 0; w < workload_.window; ++w)
        issue(*lane, Phase::kLoop);
  }

  void open_window() {
    ::getrusage(RUSAGE_SELF, &usage_start_);
    window_start_us_ = now_us();
    in_window_.store(true);
  }

  void close_window() {
    in_window_.store(false);
    window_us_ = now_us() - window_start_us_;
    rusage end{};
    ::getrusage(RUSAGE_SELF, &end);
    client_cpu_us_ = cpu_us(end) - cpu_us(usage_start_);
  }

  /// Stops issuing and waits up to kDrainUs for outstanding ops; whatever
  /// is still outstanding then has failed.
  void drain() {
    phase_.store(Phase::kStopping);
    const std::uint64_t deadline = now_us() + kDrainUs;
    while (ledger_.outstanding() > 0 && now_us() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ledger_.close();
  }

  /// Joins every generator thread; safe to call twice.
  void stop() {
    phase_.store(Phase::kStopping);
    ledger_.close();
    for (auto& lane : lanes_) {
      lane->client->stop();
      retransmissions_ += lane->client->retransmissions();
      latencies_.insert(latencies_.end(), lane->latencies.begin(),
                        lane->latencies.end());
    }
    if (mux_) mux_->shutdown();
    lanes_.clear();
    mux_.reset();
  }

  const OpLedger& ledger() const { return ledger_; }
  std::uint64_t window_ops() const { return window_ops_.load(); }
  std::uint64_t window_us() const { return window_us_; }
  double client_cpu_us() const { return client_cpu_us_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

  /// Latencies of the ops that became stable inside the window, sorted.
  /// Valid after stop(), which joined the client threads that wrote them.
  std::vector<std::uint64_t> take_latencies() {
    std::sort(latencies_.begin(), latencies_.end());
    return std::move(latencies_);
  }

 private:
  enum class Phase : std::uint8_t { kIdle, kPreload, kLoop, kStopping };

  struct Lane {
    std::shared_ptr<transport::Transport> endpoint;
    std::unique_ptr<client::Client> client;
    Mutex mutex;
    Rng rng COP_GUARDED_BY(mutex);
    std::uint32_t preload_next COP_GUARDED_BY(mutex) = 0;
    std::uint32_t preload_end COP_GUARDED_BY(mutex) = 0;
    /// Written only by this lane's client thread.
    std::vector<std::uint64_t> latencies;
  };

  /// The next op of `lane`'s stream in `phase`; nullopt once the lane's
  /// share of the preload is written.
  std::optional<Op> next_op(Lane& lane, Phase phase) {
    MutexLock lock(lane.mutex);
    Op op;
    if (phase == Phase::kPreload) {
      if (lane.preload_next == lane.preload_end) return std::nullopt;
      op.kind = OpKind::kPreload;
      op.key = lane.preload_next++;
      op.payload = app::KvOp{app::KvOpCode::kPut, kv_key(op.key),
                             kv_value(seed_, op.key)}
                       .encode();
      return op;
    }
    if (workload_.service == ServiceKind::kNull) {
      op.kind = OpKind::kNull;
      op.payload.resize(kNullRequestBytes);
      for (std::size_t i = 0; i < op.payload.size(); i += 8) {
        const std::uint64_t word = lane.rng();
        for (std::size_t b = 0; b < 8; ++b)
          op.payload[i + b] = static_cast<Byte>(word >> (8 * b));
      }
      return op;
    }
    op.key = static_cast<std::uint32_t>(lane.rng.below(kKvKeys));
    if (lane.rng.chance(0.5)) {
      op.kind = OpKind::kGet;
      op.payload = app::KvOp{app::KvOpCode::kGet, kv_key(op.key), {}}.encode();
    } else {
      op.kind = OpKind::kPut;
      op.payload = app::KvOp{app::KvOpCode::kPut, kv_key(op.key),
                             kv_value(seed_, op.key)}
                       .encode();
    }
    return op;
  }

  bool check(OpKind kind, std::uint32_t key, const Bytes& result) const {
    if (kind == OpKind::kNull)
      return result.size() == kNullReplyBytes &&
             std::all_of(result.begin(), result.end(),
                         [](Byte b) { return b == Byte{0xab}; });
    const auto decoded = app::KvResult::decode(result);
    if (!decoded || decoded->status != app::KvStatus::kOk) return false;
    if (kind == OpKind::kGet) return decoded->value == kv_value(seed_, key);
    return decoded->value.empty();
  }

  void issue(Lane& lane, Phase phase) {
    std::optional<Op> op = next_op(lane, phase);
    if (!op) return;
    if (op->kind != OpKind::kPreload) ledger_.issue();
    const OpKind kind = op->kind;
    const std::uint32_t key = op->key;
    lane.client->invoke_async(
        std::move(op->payload), /*flags=*/0,
        [this, &lane, kind, key](Bytes result, std::uint64_t latency_us) {
          on_result(lane, kind, key, result, latency_us);
        });
  }

  /// Runs on the lane's client thread. The phase is read before the result
  /// is counted: the main thread moves to the next phase as soon as the
  /// count allows, and a completion of the old phase must not issue an op
  /// of the new one — that op would exceed the client's window and block
  /// this thread, the only one that could open it again.
  void on_result(Lane& lane, OpKind kind, std::uint32_t key,
                 const Bytes& result, std::uint64_t latency_us) {
    const Phase phase = phase_.load();
    const bool correct = check(kind, key, result);
    if (kind == OpKind::kPreload) {
      if (!correct) preload_bad_.fetch_add(1);
      preload_done_.fetch_add(1);
      if (phase == Phase::kPreload) issue(lane, phase);
      return;
    }
    if (!ledger_.complete(correct)) return;
    if (in_window_.load(std::memory_order_relaxed)) {
      lane.latencies.push_back(latency_us);
      window_ops_.fetch_add(1, std::memory_order_relaxed);
    }
    if (phase == Phase::kLoop) issue(lane, phase);
  }

  const Workload& workload_;
  const std::uint64_t seed_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  std::unique_ptr<transport::TcpTransport> mux_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<Phase> phase_{Phase::kIdle};
  OpLedger ledger_;
  std::atomic<std::uint32_t> preload_done_{0};
  std::atomic<std::uint32_t> preload_bad_{0};
  std::atomic<bool> in_window_{false};
  std::atomic<std::uint64_t> window_ops_{0};
  std::vector<std::uint64_t> latencies_;
  rusage usage_start_{};
  std::uint64_t window_start_us_ = 0;
  std::uint64_t window_us_ = 0;
  double client_cpu_us_ = 0;
  std::uint64_t retransmissions_ = 0;
};

// ---------------------------------------------------------------------------
// Sessions: one cluster child, set up and optionally measured.

struct SessionResult {
  /// Gate violations; empty when the session passed.
  std::vector<std::string> failures;
  double setup_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t retransmissions = 0;
  // Measured window.
  std::uint64_t window_ops = 0;
  double window_s = 0;
  std::vector<std::uint64_t> latencies;
  double client_cpu_us = 0;
  /// The child's STATS line: window deltas and gate counters.
  std::map<std::string, double> child;

  double throughput() const {
    return window_s > 0 ? static_cast<double>(window_ops) / window_s : 0;
  }
};

double child_value(const SessionResult& s, const std::string& key) {
  const auto it = s.child.find(key);
  return it == s.child.end() ? 0.0 : it->second;
}

/// The correctness gate over one measured window's child counters.
void gate_window(const SessionResult& s, bool traced,
                 std::vector<std::string>& failures) {
  const auto value = [&s](const char* key) {
    const auto it = s.child.find(key);
    return it == s.child.end() ? -1.0 : it->second;
  };
  if (s.window_ops == 0) failures.push_back("no op completed in the window");
  if (value("min_stable_advance") <= 0)
    failures.push_back("a replica's stable checkpoint did not advance");
  if (value("ingress_dropped") != 0)
    failures.push_back("replica ingress shed or dropped frames");
  if (value("blocked_pushes") != 0)
    failures.push_back("a pillar queue push blocked");
  if (traced) {
    // Per-role thread CPU must account for the whole process.
    double roles = 0;
    for (std::size_t i = 0; i < kRoles; ++i)
      roles += value((std::string(role_name(static_cast<Role>(i))) +
                      "_ticks").c_str());
    const double process = value("process_ticks");
    const double slack =
        0.05 * process + static_cast<double>(tick_rounding_allowance(
                             static_cast<std::uint32_t>(value("threads"))));
    if (process <= 0 || std::fabs(roles - process) > slack)
      failures.push_back("per-role thread CPU does not sum to process CPU");
  }
}

/// Forks a cluster, connects the clients, runs any preload and the first op
/// (set-up), then warms up and measures one window of `window_ms`.
SessionResult run_session(const Workload& workload, std::uint64_t seed,
                          bool traced, std::uint64_t window_ms) {
  SessionResult out;
  const auto ports = pick_ports();
  if (!ports) {
    out.failures.push_back("no free ports");
    return out;
  }
  ClusterSpec spec;
  spec.service = workload.service;
  spec.max_active_proposals = workload.max_active_proposals;
  spec.traced = traced;
  spec.ports = *ports;

  ClusterProcess cluster;
  LoadGen gen(workload, seed);
  const std::uint64_t fork_us = now_us();
  std::string error;
  bool ok = cluster.start(spec, error);
  if (!ok) out.failures.push_back(error);
  if (ok && !(ok = gen.connect(*ports)))
    out.failures.push_back("client transport did not start");
  if (ok && workload.service == ServiceKind::kKv && !(ok = gen.preload()))
    out.failures.push_back("preload did not complete correctly");
  if (ok && !(ok = gen.first_op()))
    out.failures.push_back("first op was not stable and correct");
  out.setup_s = static_cast<double>(now_us() - fork_us) / 1e6;

  if (ok) {
    gen.start_loop();
    std::this_thread::sleep_for(std::chrono::milliseconds(workload.warmup_ms));
    if (cluster.command('W') != "ACK") {
      out.failures.push_back("cluster did not take the window-start reading");
    } else {
      gen.open_window();
      std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
      gen.close_window();
      const std::string stats = cluster.command('E');
      if (stats.rfind("STATS ", 0) != 0)
        out.failures.push_back("cluster did not report window stats");
      out.child = parse_stats(stats);
    }
    gen.drain();
  }

  gen.stop();
  const int wstatus = cluster.finish();
  if (!(wstatus >= 0 && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0))
    out.failures.push_back("cluster process did not exit cleanly");

  out.attempted = gen.ledger().issued();
  out.failed = gen.ledger().failed();
  out.retransmissions = gen.retransmissions();
  out.window_ops = gen.window_ops();
  out.window_s = static_cast<double>(gen.window_us()) / 1e6;
  out.client_cpu_us = gen.client_cpu_us();
  out.latencies = gen.take_latencies();
  if (out.failed > 0)
    out.failures.push_back(std::to_string(out.failed) + " of " +
                           std::to_string(out.attempted) +
                           " ops failed or were not stable by the drain "
                           "deadline");
  if (ok && !out.child.empty())
    gate_window(out, traced, out.failures);
  return out;
}

// ---------------------------------------------------------------------------
// Metrics and report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The end-to-end metrics of one measured session.
std::vector<Metric> end_to_end(const SessionResult& s) {
  const auto child = [&s](const char* key) { return child_value(s, key); };
  return {
      {"throughput_ops", s.throughput(), "ops/s"},
      {"latency_p50_us", static_cast<double>(percentile(s.latencies, 0.50)),
       "us"},
      {"latency_p999_us",
       static_cast<double>(percentile(s.latencies, 0.999)), "us"},
      {"cpu_us_per_op", per_op(child("cpu_us"), s.window_ops), "us"},
      {"rss_mb", child("maxrss_kb") / 1024.0, "MiB"},
      {"setup_s", s.setup_s, "s"},
  };
}

/// The end-to-end metrics of one run: latency percentiles over the pooled
/// samples of its sessions, every other metric the median over them. The
/// tail is p99.9, not p99: on kv_batched 0.7-1 % of requests wait out a
/// checkpoint snapshot, so p99 lands on either side of that step from one
/// run to the next (25 or 75 ms), while p99.9 sits inside it.
std::vector<Metric> summarize_run(
    const std::vector<SessionResult>& sessions) {
  std::vector<Metric> out;
  std::vector<std::vector<double>> values;
  std::vector<std::uint64_t> pooled;
  for (const SessionResult& s : sessions) {
    const std::vector<Metric> one = end_to_end(s);
    if (out.empty()) {
      out = one;
      values.resize(one.size());
    }
    for (std::size_t i = 0; i < one.size(); ++i)
      values[i].push_back(one[i].value);
    pooled.insert(pooled.end(), s.latencies.begin(), s.latencies.end());
  }
  std::sort(pooled.begin(), pooled.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].name == "latency_p50_us")
      out[i].value = static_cast<double>(percentile(pooled, 0.50));
    else if (out[i].name == "latency_p999_us")
      out[i].value = static_cast<double>(percentile(pooled, 0.999));
    else
      out[i].value = median(values[i]);
  }
  std::printf("latency samples pooled over %zu sessions: %zu\n",
              sessions.size(), pooled.size());
  return out;
}

std::vector<Metric> per_layer(const SessionResult& t,
                              const SessionResult& untraced) {
  const auto c = [&t](const std::string& key) { return child_value(t, key); };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const std::uint64_t ops = t.window_ops;
  const double tick_us = ratio(1e6, c("clk_tck"));
  const double window_us = c("window_us");
  const double cluster_ns = c("cpu_us") * 1e3;
  const double pillar_us = c("pillar_ticks") * tick_us;
  const double exec_us = c("exec_ticks") * tick_us;
  const double lane_us = c("lane_ticks") * tick_us;
  double role_ticks = 0;
  for (std::size_t i = 0; i < kRoles; ++i)
    role_ticks += c(std::string(role_name(static_cast<Role>(i))) + "_ticks");
  return {
      {"crypto.mac_calls_per_op", per_op(c("mac_calls"), ops), "calls/op"},
      {"crypto.mac_ns_per_op", per_op(c("mac_ns"), ops), "ns/op"},
      {"crypto.digest_calls_per_op", per_op(c("digest_calls"), ops),
       "calls/op"},
      {"crypto.digest_bytes_per_op", per_op(c("digest_bytes"), ops), "B/op"},
      {"crypto.digest_ns_per_op", per_op(c("digest_ns"), ops), "ns/op"},
      {"crypto.cpu_share", ratio(c("mac_ns") + c("digest_ns"), cluster_ns),
       "fraction"},
      {"protocol.requests_per_instance",
       ratio(c("requests_delivered"), c("instances_delivered")), "requests"},
      {"protocol.noop_instances_per_kop", per_op(c("noop_proposals"), ops, 1e3),
       "1/kop"},
      {"protocol.macs_verified_per_op", per_op(c("macs_verified"), ops),
       "1/op"},
      {"protocol.verifications_skipped_per_op",
       per_op(c("verifications_skipped"), ops), "1/op"},
      {"protocol.view_changes", c("view_changes_started"), "count"},
      {"protocol.checkpoints_stable", c("checkpoints_stable"), "count"},
      {"core.pillar_cpu_us_per_op", per_op(pillar_us, ops), "us/op"},
      {"core.pillar_self_us_per_op",
       per_op(pillar_us - c("pillar_top_ns") / 1e3, ops), "us/op"},
      {"core.pillar_busy_max",
       ratio(c("pillar_max_ticks") * tick_us, window_us), "fraction"},
      {"core.pillar_wakeups_per_op", per_op(c("pillar_vcsw"), ops), "1/op"},
      {"core.exec_cpu_us_per_op", per_op(exec_us, ops), "us/op"},
      {"core.exec_busy", ratio(c("exec_max_ticks") * tick_us, window_us),
       "fraction"},
      {"core.exec_wakeups_per_op", per_op(c("exec_vcsw"), ops), "1/op"},
      {"core.gap_fills_per_kop", per_op(c("gap_fills"), ops, 1e3), "1/kop"},
      {"core.replies_inline_share",
       ratio(c("replies_sent") - c("replies_offloaded"), c("replies_sent")),
       "fraction"},
      {"core.reorder_slot_drops", c("reorder_slot_drops"), "count"},
      {"app.execute_ns_per_op", per_op(c("execute_ns"), ops), "ns/op"},
      {"app.post_process_ns_per_op", per_op(c("post_process_ns"), ops),
       "ns/op"},
      {"app.snapshot_ms_per_checkpoint",
       ratio(c("snapshot_ns"), c("snapshot_calls")) / 1e6, "ms"},
      {"app.state_digest_us_per_checkpoint",
       ratio(c("state_digest_ns"), c("state_digest_calls")) / 1e3, "us"},
      {"transport.frames_sent_per_op", per_op(c("send_calls"), ops), "1/op"},
      {"transport.bytes_sent_per_op", per_op(c("send_bytes"), ops), "B/op"},
      {"transport.send_ns_per_op", per_op(c("send_ns"), ops), "ns/op"},
      {"transport.frames_in_per_op", per_op(c("sink_calls"), ops), "1/op"},
      {"transport.sink_busy_share", ratio(c("sink_ns") / 1e3, lane_us),
       "fraction"},
      {"transport.lane_cpu_us_per_op", per_op(lane_us, ops), "us/op"},
      {"transport.lane_wakeups_per_op", per_op(c("lane_vcsw"), ops), "1/op"},
      {"client.cpu_us_per_op", per_op(t.client_cpu_us, ops), "us/op"},
      {"client.retransmissions_per_kop",
       per_op(static_cast<double>(t.retransmissions), t.attempted, 1e3),
       "1/kop"},
      {"cluster.vol_ctx_switches_per_op", per_op(c("vcsw"), ops), "1/op"},
      {"cluster.invol_ctx_switches_per_op", per_op(c("ivcsw"), ops), "1/op"},
      {"cluster.role_cpu_coverage", ratio(role_ticks, c("process_ticks")),
       "fraction"},
      {"host.steal_share", c("host_steal_share"), "fraction"},
      {"trace.overhead", 1.0 - ratio(t.throughput(), untraced.throughput()),
       "fraction"},
  };
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_session(const char* label, const SessionResult& s) {
  std::printf("%s: %" PRIu64 " ops in %.3f s = %.1f ops/s, latency samples "
              "%zu (p50 %" PRIu64 " us, p99 %" PRIu64 " us, p99.9 %" PRIu64
              " us, max %" PRIu64
              " us), setup %.3f s, attempted %" PRIu64 ", failed %" PRIu64
              ", retransmissions %" PRIu64 ", view changes started %.0f"
              " completed %.0f, host steal %.3f\n",
              label, s.window_ops, s.window_s, s.throughput(),
              s.latencies.size(), percentile(s.latencies, 0.50),
              percentile(s.latencies, 0.99), percentile(s.latencies, 0.999),
              percentile(s.latencies, 1.0),
              s.setup_s, s.attempted, s.failed, s.retransmissions,
              child_value(s, "view_changes_started"),
              child_value(s, "view_changes_completed"),
              child_value(s, "host_steal_share"));
}

/// Runs sessions until `wanted` of them saw at most kMaxSteal of the host's
/// CPU time withheld by the hypervisor, or `budget` sessions ran, and
/// returns the `wanted` least disturbed (empty if any session failed the
/// gate). Every session run is appended to `all`, whose ops and gate
/// failures count in the result either way.
///
/// Steal comes from other tenants of the host and arrives in episodes of
/// tens of seconds in which up to a third of the CPU is withheld; a window
/// inside one measures the neighbours, not the cluster.
std::vector<SessionResult> run_steady_sessions(
    const Workload& w, std::uint64_t seed, bool traced,
    std::uint64_t window_ms, std::uint32_t wanted, std::uint32_t budget,
    std::vector<SessionResult>& all) {
  std::vector<SessionResult> run;
  std::uint32_t steady = 0;
  while (steady < wanted && run.size() < budget) {
    run.push_back(run_session(w, seed, traced, window_ms));
    const SessionResult& s = run.back();
    const bool quiet = child_value(s, "host_steal_share") <= kMaxSteal;
    steady += quiet ? 1 : 0;
    print_session(traced ? "traced" : "session", s);
    all.push_back(s);
    if (!s.failures.empty()) return {};
  }
  std::stable_sort(run.begin(), run.end(),
                   [](const SessionResult& a, const SessionResult& b) {
                     return child_value(a, "host_steal_share") <
                            child_value(b, "host_steal_share");
                   });
  run.resize(std::min<std::size_t>(run.size(), wanted));
  return run;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  std::printf("workload %s seed %" PRIu64 " seconds %u trace %d\n", w.name,
              args.seed, args.seconds, args.trace ? 1 : 0);

  std::vector<SessionResult> sessions;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  if (!args.trace) {
    const std::uint64_t window_ms = args.seconds * 1000ull / w.sessions;
    const auto kept = run_steady_sessions(w, args.seed, /*traced=*/false,
                                          window_ms, w.sessions,
                                          w.sessions + w.spare_sessions,
                                          sessions);
    metrics = summarize_run(kept);
    std::size_t samples = 0;
    for (const SessionResult& s : kept) samples += s.latencies.size();
    if (!kept.empty() && samples_beyond(samples, 0.999) < 10)
      failures.push_back("fewer than ten latency samples beyond p99.9");
  } else {
    // One session of each kind, each the steadier of two tries at most.
    const std::uint64_t window_ms = args.seconds * 1000ull / 2;
    const auto untraced =
        run_steady_sessions(w, args.seed, false, window_ms, 1, 2, sessions);
    if (!untraced.empty()) {
      const auto traced =
          run_steady_sessions(w, args.seed, true, window_ms, 1, 2, sessions);
      if (!traced.empty()) metrics = per_layer(traced[0], untraced[0]);
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const SessionResult& s : sessions) {
    attempted += s.attempted;
    failed += s.failed;
    failures.insert(failures.end(), s.failures.begin(), s.failures.end());
  }
  // Set-up failures leave no op attempted; count the set-up as the op.
  if (attempted == 0) attempted = failed = 1;
  const bool correct = failures.empty();

  for (const Metric& m : metrics)
    std::printf("  %-40s %14.3f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("  %-40s %14.6f fraction (%" PRIu64 " of %" PRIu64 ")\n",
              "error_rate", error_rate(failed, attempted), failed, attempted);
  for (const std::string& f : failures)
    std::printf("GATE FAILED: %s\n", f.c_str());
  std::printf("gate: %s\n", correct ? "ok" : "failed");

  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <null_light|null_saturated|kv_batched>"
                 " --seed <n> --seconds <1..600> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  // A cluster child that dies must not take the parent down with a
  // SIGPIPE on the control pipe.
  ::signal(SIGPIPE, SIG_IGN);
  return perfbench::run(*args);
}
