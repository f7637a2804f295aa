// Checks BENCH_*.json artifacts: every file must parse as JSON (the reader
// in common/json.hpp) and pass each gate in support/bench_gates.hpp that
// applies to what it records. CI runs it over the artifacts its jobs
// generate and over the committed ones; tier-1 runs it over the committed
// ones (ctest bench_artifacts).
//
// Usage: validate_bench_json FILE... ; exit 0 iff every file passes.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/bench_gates.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: validate_bench_json FILE...\n");
    return 2;
  }
  int bad = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++bad;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();
    const std::optional<copbft::json::Value> doc =
        copbft::json::parse(content);
    if (!doc) {
      std::fprintf(stderr, "%s: INVALID JSON\n", argv[i]);
      ++bad;
      continue;
    }
    const std::vector<std::string> failures =
        copbft::bench::check_gates(*doc);
    for (const std::string& failure : failures)
      std::fprintf(stderr, "%s: FAILED %s\n", argv[i], failure.c_str());
    if (!failures.empty()) {
      ++bad;
      continue;
    }
    std::printf("%s: ok (%zu bytes)\n", argv[i], content.size());
  }
  return bad == 0 ? 0 : 1;
}
