#include "stats.hpp"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::size_t rank_of(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  if (token.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[rank_of(sorted.size(), q) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2;
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

double per_op(double delta, std::uint64_t ops, double scale) {
  return ops == 0 ? 0.0 : delta * scale / static_cast<double>(ops);
}

double error_rate(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

std::optional<TaskStat> parse_task_stat(std::string_view text) {
  const auto open = text.find('(');
  const auto close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open)
    return std::nullopt;
  TaskStat out;
  out.comm = std::string(text.substr(open + 1, close - open - 1));
  // After the name: field 3 (state) onwards; utime and stime are fields 14
  // and 15 of proc(5), i.e. the 12th and 13th tokens here.
  std::vector<std::string_view> fields;
  std::string_view rest = text.substr(close + 1);
  while (!rest.empty() && fields.size() < 13) {
    const auto start = rest.find_first_not_of(" \n");
    if (start == std::string_view::npos) break;
    rest.remove_prefix(start);
    const auto end = rest.find_first_of(" \n");
    fields.push_back(rest.substr(0, end));
    rest.remove_prefix(end == std::string_view::npos ? rest.size() : end);
  }
  if (fields.size() < 13) return std::nullopt;
  const auto utime = parse_u64(fields[11]);
  const auto stime = parse_u64(fields[12]);
  if (!utime || !stime) return std::nullopt;
  out.utime = *utime;
  out.stime = *stime;
  return out;
}

std::optional<TaskSwitches> parse_task_status(std::string_view text) {
  TaskSwitches out;
  bool have_vol = false;
  bool have_invol = false;
  while (!text.empty()) {
    const auto eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    const auto start = value.find_first_not_of(" \t");
    if (start == std::string_view::npos) continue;
    value.remove_prefix(start);
    if (key == "voluntary_ctxt_switches") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      out.voluntary = *v;
      have_vol = true;
    } else if (key == "nonvoluntary_ctxt_switches") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      out.involuntary = *v;
      have_invol = true;
    }
  }
  if (!have_vol || !have_invol) return std::nullopt;
  return out;
}

Role role_of(std::string_view name) {
  if (name.starts_with("pillar-")) return Role::kPillar;
  if (name == "exec") return Role::kExec;
  if (name.starts_with("tcp-lane")) return Role::kLane;
  if (name == "statex") return Role::kStatex;
  return Role::kOther;
}

const char* role_name(Role role) {
  switch (role) {
    case Role::kPillar:
      return "pillar";
    case Role::kExec:
      return "exec";
    case Role::kLane:
      return "lane";
    case Role::kStatex:
      return "statex";
    case Role::kOther:
      return "other";
  }
  return "other";
}

std::map<int, ThreadSample> read_tasks(const std::string& task_dir) {
  std::map<int, ThreadSample> out;
  DIR* dir = ::opendir(task_dir.c_str());
  if (!dir) return out;
  while (const dirent* entry = ::readdir(dir)) {
    const auto tid = parse_u64(entry->d_name);
    if (!tid) continue;
    const std::string base = task_dir + "/" + entry->d_name;
    const auto stat_text = slurp(base + "/stat");
    const auto status_text = slurp(base + "/status");
    if (!stat_text || !status_text) continue;
    const auto stat = parse_task_stat(*stat_text);
    const auto status = parse_task_status(*status_text);
    if (!stat || !status) continue;
    out[static_cast<int>(*tid)] =
        ThreadSample{role_of(stat->comm), stat->utime + stat->stime,
                     status->voluntary, status->involuntary};
  }
  ::closedir(dir);
  return out;
}

std::optional<std::uint64_t> read_process_ticks(const std::string& stat_path) {
  const auto text = slurp(stat_path);
  if (!text) return std::nullopt;
  const auto stat = parse_task_stat(*text);
  if (!stat) return std::nullopt;
  return stat->utime + stat->stime;
}

std::array<RoleUsage, kRoles> group_deltas(
    const std::map<int, ThreadSample>& before,
    const std::map<int, ThreadSample>& after) {
  std::array<RoleUsage, kRoles> out{};
  for (const auto& [tid, end] : after) {
    const auto it = before.find(tid);
    if (it == before.end()) continue;
    const ThreadSample& start = it->second;
    RoleUsage& usage = out[static_cast<std::size_t>(end.role)];
    const std::uint64_t ticks = end.ticks - start.ticks;
    usage.ticks += ticks;
    usage.max_thread_ticks = std::max(usage.max_thread_ticks, ticks);
    usage.voluntary += end.voluntary - start.voluntary;
    usage.involuntary += end.involuntary - start.involuntary;
    ++usage.threads;
  }
  return out;
}

std::uint64_t tick_rounding_allowance(std::uint32_t threads) {
  // utime and stime truncate separately, so one reading of a thread (or of
  // the process total) is up to two ticks low and a delta of two readings
  // is off by less than two ticks either way.
  return 2ull * (threads + 1);
}

}  // namespace perfbench
