// Arithmetic of the closed-loop cluster benchmark, kept apart from the
// cluster and client code so the self-tests (tests/stats_test.cpp) can
// check it on canned inputs: percentiles and their sample counts, per-op
// normalisation, /proc task parsing with grouping by thread role, and the
// op ledger that turns a bounded drain into error_rate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least ceil(q * n) samples at or below it. `q` is in (0, 1].
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double q);

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even); 0 for an empty sample.
double median(std::vector<double> values);

/// Samples ranked strictly above the q-th percentile: n - ceil(q * n).
/// A percentile is reported only when at least ten samples lie beyond it.
std::size_t samples_beyond(std::size_t n, double q);

// ---------------------------------------------------------------------------
// Normalisation

/// `delta * scale / ops`: a window delta per completed op (scale 1e3 gives
/// "per kop"). Returns 0 when no op completed, so a dead window reads as
/// no work rather than as a division by zero; the correctness gate rejects
/// such a window anyway.
double per_op(double delta, std::uint64_t ops, double scale = 1.0);

/// Failed ops over attempted ops; 0 when nothing was attempted.
double error_rate(std::uint64_t failed, std::uint64_t attempted);

// ---------------------------------------------------------------------------
// /proc task accounting

/// Fields of /proc/<pid>/task/<tid>/stat the benchmark reads; times are in
/// clock ticks (sysconf(_SC_CLK_TCK)).
struct TaskStat {
  std::string comm;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
};

/// Parses one stat line. The thread name sits in parentheses and may itself
/// contain spaces or ')', so fields are counted from the last ')'.
std::optional<TaskStat> parse_task_stat(std::string_view text);

struct TaskSwitches {
  std::uint64_t voluntary = 0;
  std::uint64_t involuntary = 0;
};

/// Reads voluntary_ctxt_switches / nonvoluntary_ctxt_switches from a
/// /proc/<pid>/task/<tid>/status file.
std::optional<TaskSwitches> parse_task_status(std::string_view text);

/// Thread roles of a COP replica process, from the names its threads set.
enum class Role : std::uint8_t { kPillar, kExec, kLane, kStatex, kOther };
constexpr std::size_t kRoles = 5;

Role role_of(std::string_view thread_name);
const char* role_name(Role role);

struct ThreadSample {
  Role role = Role::kOther;
  std::uint64_t ticks = 0;  ///< utime + stime
  std::uint64_t voluntary = 0;
  std::uint64_t involuntary = 0;
};

/// One reading of every thread under `task_dir` (e.g. "/proc/self/task"),
/// keyed by tid. Threads that vanish while being read are skipped.
std::map<int, ThreadSample> read_tasks(const std::string& task_dir);

/// utime + stime of a whole process from its /proc/<pid>/stat file, which
/// also counts threads that have already exited. nullopt if unreadable.
std::optional<std::uint64_t> read_process_ticks(const std::string& stat_path);

struct RoleUsage {
  std::uint64_t ticks = 0;
  std::uint64_t max_thread_ticks = 0;  ///< busiest single thread
  std::uint64_t voluntary = 0;
  std::uint64_t involuntary = 0;
  std::uint32_t threads = 0;
};

/// Per-role deltas between two readings, over the threads present in both.
std::array<RoleUsage, kRoles> group_deltas(
    const std::map<int, ThreadSample>& before,
    const std::map<int, ThreadSample>& after);

/// Largest gap between the summed per-thread ticks and the process ticks
/// that tick truncation alone can explain: each thread's utime and stime
/// are truncated separately at both readings.
std::uint64_t tick_rounding_allowance(std::uint32_t threads);

// ---------------------------------------------------------------------------
// Op ledger

/// Counts the ops of a closed loop. Every issued op ends as stable and
/// correct, stable with a wrong result, or still outstanding when the drain
/// deadline closes the ledger; the last two are failures. Completions after
/// close() are ignored — a result that arrives after the deadline did not
/// make it. Thread-safe: client threads complete, the main thread reads.
class OpLedger {
 public:
  void issue() { issued_.fetch_add(1, std::memory_order_relaxed); }

  /// Records one stable result; returns false if the ledger is closed.
  bool complete(bool correct) {
    if (closed_.load(std::memory_order_acquire)) return false;
    (correct ? ok_ : wrong_).fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void close() { closed_.store(true, std::memory_order_release); }

  std::uint64_t issued() const {
    return issued_.load(std::memory_order_relaxed);
  }
  std::uint64_t ok() const { return ok_.load(std::memory_order_relaxed); }
  std::uint64_t wrong() const {
    return wrong_.load(std::memory_order_relaxed);
  }
  std::uint64_t outstanding() const {
    const std::uint64_t done = ok() + wrong();
    return issued() > done ? issued() - done : 0;
  }
  /// Wrong results plus ops still outstanding.
  std::uint64_t failed() const { return wrong() + outstanding(); }

 private:
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> wrong_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace perfbench
