// coplint — COP-aware static analysis for this repository.
//
//   coplint [--root DIR] [--config FILE] [--json FILE] [--fix-list]
//           [--expect FILE] [--baseline FILE] [--write-baseline FILE]
//           [--list-rules] PATH...
//
// PATHs are files or directories, relative to --root (default: cwd).
// Exit codes: 0 clean, 1 unsuppressed findings or a baseline/expect
// mismatch, 2 usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "rules.hpp"
#include "scan.hpp"

namespace fs = std::filesystem;
using coplint::Config;
using coplint::Finding;
using coplint::GlobalIndex;
using coplint::SourceFile;
namespace json = copbft::json;

namespace {

constexpr const char* kVersion = "1.0";

struct Options {
  std::string root = ".";
  std::string config_path;
  std::string json_path;
  std::string expect_path;
  std::string baseline_path;
  std::string write_baseline_path;
  bool fix_list = false;
  bool list_rules = false;
  std::vector<std::string> paths;
};

bool source_extension(const fs::path& p) {
  static const char* kExts[] = {".hpp", ".cpp", ".h", ".cc", ".hh", ".ipp"};
  std::string ext = p.extension().string();
  for (const char* e : kExts)
    if (ext == e) return true;
  return false;
}

bool skip_dir(const std::string& name) {
  return name == ".git" || name == "CMakeFiles" ||
         name.rfind("build", 0) == 0;
}

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

std::string canonical_line(const Finding& f) {
  std::string s = f.file + ":" + std::to_string(f.line) + ": " + f.rule +
                  ": " + f.message;
  if (f.suppressed) s += " [suppressed]";
  return s;
}

std::string quote(std::string_view s) {
  std::string out;
  json::append_string(out, s);
  return out;
}

/// A per-rule count object, one member per line, closed at `indent`: the
/// layout of both the report and the baseline.
std::string count_object(const std::map<std::string, long>& counts,
                         const std::string& indent) {
  std::string out = "{";
  const char* sep = "\n";
  for (const auto& [rule, n] : counts) {
    out += sep + indent + "  " + quote(rule) + ": " + std::to_string(n);
    sep = ",\n";
  }
  return out + (counts.empty() ? "}" : "\n" + indent + "}");
}

std::string baseline_json(const std::map<std::string, long>& per_rule) {
  long total = 0;
  for (const auto& [rule, n] : per_rule) total += n;
  return "{\n  \"tool\": \"coplint-baseline\",\n  \"suppressed_total\": " +
         std::to_string(total) + ",\n  \"suppressed_per_rule\": " +
         count_object(per_rule, "  ") + "\n}\n";
}

int usage(const std::string& msg) {
  if (!msg.empty()) std::cerr << "coplint: " << msg << "\n";
  std::cerr << "usage: coplint [--root DIR] [--config FILE] [--json FILE]"
               " [--fix-list]\n               [--expect FILE] [--baseline"
               " FILE] [--write-baseline FILE]\n               "
               "[--list-rules] PATH...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](std::string* dst) {
      if (i + 1 >= argc) return false;
      *dst = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!value(&opt.root)) return usage("--root needs a value");
    } else if (arg == "--config") {
      if (!value(&opt.config_path)) return usage("--config needs a value");
    } else if (arg == "--json") {
      if (!value(&opt.json_path)) return usage("--json needs a value");
    } else if (arg == "--expect") {
      if (!value(&opt.expect_path)) return usage("--expect needs a value");
    } else if (arg == "--baseline") {
      if (!value(&opt.baseline_path))
        return usage("--baseline needs a value");
    } else if (arg == "--write-baseline") {
      if (!value(&opt.write_baseline_path))
        return usage("--write-baseline needs a value");
    } else if (arg == "--fix-list") {
      opt.fix_list = true;
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage("unknown option " + arg);
    } else {
      opt.paths.push_back(arg);
    }
  }

  if (opt.list_rules) {
    for (const coplint::RuleInfo& r : coplint::all_rules())
      std::cout << r.id << "  [" << r.family << "]  " << r.summary << "\n";
    return 0;
  }
  if (opt.paths.empty()) return usage("no paths given");

  std::error_code ec;
  fs::path root = fs::canonical(opt.root, ec);
  if (ec) return usage("bad --root " + opt.root + ": " + ec.message());

  Config config;
  if (!opt.config_path.empty()) {
    bool ok = false;
    std::string text = read_file(opt.config_path, &ok);
    if (!ok) text = read_file((root / opt.config_path).string(), &ok);
    if (!ok) return usage("cannot read config " + opt.config_path);
    std::string error;
    config = Config::parse(text, &error);
    if (!error.empty()) return usage(error);
  }

  // Collect files: sorted so output and JSON are byte-stable run to run.
  std::vector<std::string> rel_paths;
  for (const std::string& p : opt.paths) {
    fs::path abs = root / p;
    if (fs::is_regular_file(abs)) {
      rel_paths.push_back(fs::relative(abs, root).generic_string());
      continue;
    }
    if (!fs::is_directory(abs)) return usage("no such path: " + p);
    for (auto it = fs::recursive_directory_iterator(abs);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && skip_dir(it->path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && source_extension(it->path()))
        rel_paths.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());
  rel_paths.erase(std::unique(rel_paths.begin(), rel_paths.end()),
                  rel_paths.end());

  // Pass 1: load everything and build the cross-file index (identifiers
  // known to name unordered containers anywhere in the scanned tree).
  std::vector<SourceFile> files;
  GlobalIndex index;
  for (const std::string& rel : rel_paths) {
    if (config.excluded(rel)) continue;
    files.push_back(SourceFile::load((root / rel).string(), rel));
    for (const coplint::ContainerDecl& d :
         coplint::parse_container_decls(files.back())) {
      if (d.unordered && d.ident != "*") index.unordered_idents.insert(d.ident);
    }
  }

  // Pass 2: rules.
  std::vector<Finding> findings;
  for (const SourceFile& f : files) run_rules(f, index, config, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });

  long unsuppressed = 0, suppressed = 0;
  std::map<std::string, long> per_rule_suppressed;
  std::map<std::string, long> per_rule_unsuppressed;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
      ++per_rule_suppressed[f.rule];
    } else {
      ++unsuppressed;
      ++per_rule_unsuppressed[f.rule];
    }
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path, std::ios::binary);
    if (!out) return usage("cannot write " + opt.json_path);
    out << "{\n  \"tool\": \"coplint\",\n  \"version\": \"" << kVersion
        << "\",\n  \"root\": " << quote(root.generic_string())
        << ",\n  \"files_scanned\": " << files.size()
        << ",\n  \"counts\": {\n    \"unsuppressed\": " << unsuppressed
        << ",\n    \"suppressed\": " << suppressed
        << ",\n    \"per_rule\": "
        << count_object(per_rule_unsuppressed, "    ")
        << ",\n    \"per_rule_suppressed\": "
        << count_object(per_rule_suppressed, "    ")
        << "\n  },\n  \"findings\": [";
    const char* sep = "\n";
    for (const Finding& f : findings) {
      out << sep << "    {\"file\": " << quote(f.file)
          << ", \"line\": " << f.line << ", \"rule\": " << quote(f.rule)
          << ", \"suppressed\": " << (f.suppressed ? "true" : "false")
          << ", \"message\": " << quote(f.message);
      if (f.suppressed) out << ", \"reason\": " << quote(f.reason);
      out << "}";
      sep = ",\n";
    }
    out << (findings.empty() ? "" : "\n  ") << "]\n}\n";
  }

  if (!opt.write_baseline_path.empty()) {
    std::ofstream out(opt.write_baseline_path, std::ios::binary);
    if (!out) return usage("cannot write " + opt.write_baseline_path);
    out << baseline_json(per_rule_suppressed);
    std::cout << "coplint: wrote baseline (" << suppressed
              << " suppressed findings) to " << opt.write_baseline_path
              << "\n";
    return 0;
  }

  if (!opt.expect_path.empty()) {
    // Golden-file mode (fixture tests): compare canonical finding lines,
    // suppressed ones tagged, against the expected file. The exit code
    // reflects the comparison only.
    bool ok = false;
    std::string text = read_file(opt.expect_path, &ok);
    if (!ok) text = read_file((root / opt.expect_path).string(), &ok);
    if (!ok) return usage("cannot read expect file " + opt.expect_path);
    std::vector<std::string> expected;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty() && line[0] != '#') expected.push_back(line);
    }
    std::vector<std::string> got;
    got.reserve(findings.size());
    for (const Finding& f : findings) got.push_back(canonical_line(f));
    if (got == expected) {
      std::cout << "coplint: output matches " << opt.expect_path << " ("
                << got.size() << " findings)\n";
      return 0;
    }
    std::cerr << "coplint: findings do not match " << opt.expect_path
              << "\n--- expected (" << expected.size() << ") ---\n";
    for (const std::string& l : expected) std::cerr << l << "\n";
    std::cerr << "--- got (" << got.size() << ") ---\n";
    for (const std::string& l : got) std::cerr << l << "\n";
    return 1;
  }

  if (opt.fix_list) {
    for (const Finding& f : findings) {
      if (!f.suppressed)
        std::cout << f.file << ":" << f.line << ": " << f.rule << "\n";
    }
  } else {
    for (const Finding& f : findings) {
      if (!f.suppressed) std::cout << canonical_line(f) << "\n";
    }
  }

  int exit_code = unsuppressed > 0 ? 1 : 0;

  if (!opt.baseline_path.empty()) {
    // Suppression budget: per-rule suppressed counts may only go down.
    bool ok = false;
    std::string text = read_file(opt.baseline_path, &ok);
    if (!ok) text = read_file((root / opt.baseline_path).string(), &ok);
    if (!ok) return usage("cannot read baseline " + opt.baseline_path);
    const std::optional<json::Value> doc = json::parse(text);
    if (!doc)
      return usage("baseline " + opt.baseline_path + " is not valid JSON");
    const json::Value* per_rule = doc->find("suppressed_per_rule");
    if (!per_rule || per_rule->kind != json::Value::Kind::kObject)
      return usage("baseline " + opt.baseline_path +
                   " has no \"suppressed_per_rule\" object");
    for (const auto& [rule, n] : per_rule_suppressed) {
      const json::Value* budget = per_rule->find(rule);
      const long allowed = budget ? static_cast<long>(budget->number) : 0;
      if (n > allowed) {
        std::cerr << "coplint: suppression budget exceeded for " << rule
                  << ": " << n << " suppressions, baseline allows "
                  << allowed
                  << " (fix the finding instead, or justify lowering the "
                     "bar in tools/coplint_baseline.json)\n";
        exit_code = 1;
      }
    }
  }

  std::cout << "coplint: " << files.size() << " files, " << unsuppressed
            << " findings, " << suppressed << " suppressed\n";
  return exit_code;
}
