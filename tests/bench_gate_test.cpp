// The BENCH_*.json gate table (bench/support/bench_gates.hpp) over the
// committed artifacts: they are the runs the strictest floors key on, and
// every gate fails when one recorded value crosses its threshold. ctest's
// bench_artifacts runs bench/validate_bench_json over the same files.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/bench_gates.hpp"

namespace copbft::test {
namespace {

json::Value load(const std::string& name) {
  std::ifstream in(std::string(COP_SOURCE_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::optional<json::Value> doc = json::parse(buf.str());
  if (!doc) throw std::runtime_error(name + " does not parse");
  return *doc;
}

json::Value& member(json::Value& obj, const char* key) {
  auto* v = const_cast<json::Value*>(std::as_const(obj).find(key));
  if (!v) throw std::out_of_range(std::string("no member ") + key);
  return *v;
}

/// The element of `array` whose `key` member is the string `name`.
json::Value& element(json::Value& array, const char* key,
                     const std::string& name) {
  for (json::Value& v : array.items)
    if (const json::Value* k = v.find(key); k && k->string == name) return v;
  throw std::out_of_range("no element with " + std::string(key) + " " + name);
}

json::Value& cop12(json::Value& fig5a) {
  for (json::Value& cell : member(fig5a, "results").items)
    if (member(cell, "system").string == "COP" &&
        member(cell, "cores").number == 12)
      return cell;
  throw std::out_of_range("no COP@12 cell");
}

json::Value& soak_cell(json::Value& ingress, const char* name) {
  return element(member(ingress, "cells"), "cell", name);
}

bool gate_failed(const std::vector<std::string>& failures,
                 const std::string& gate) {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const std::string& f) {
                       return f.rfind(gate + ": ", 0) == 0;
                     });
}

// The 399.6k floor keys on measure_ns and the 10k-connection floor on
// soak_clients, so the committed files must be the runs that carry them.
// (The mutation cases below show those gates then apply.)
TEST(CommittedBenchArtifacts, Fig5aIsThe400msRun) {
  json::Value doc = load("BENCH_fig5a.json");
  EXPECT_EQ(member(doc, "measure_ns").number, 400'000'000);
}

TEST(CommittedBenchArtifacts, IngressIsTheFullScaleSoak) {
  json::Value doc = load("BENCH_ingress.json");
  EXPECT_EQ(member(doc, "soak_clients").number, 2'500);
}

struct Mutation {
  const char* artifact;
  const char* change;
  const char* gate;  ///< must fail once the change is applied
  std::function<void(json::Value&)> apply;
};

TEST(BenchGates, EachThresholdFailsItsGate) {
  const std::vector<Mutation> mutations = {
      {"BENCH_fig5b.json", "no results", "fig cells",
       [](json::Value& d) { member(d, "results").items.clear(); }},
      {"BENCH_fig6.json", "a cell with throughput 0", "fig cells",
       [](json::Value& d) {
         member(member(d, "results").items.at(0), "throughput_ops").number = 0;
       }},
      {"BENCH_fig5a.json", "a cell without stages", "fig cells",
       [](json::Value& d) { member(cop12(d), "stages").items.clear(); }},
      {"BENCH_fig5a.json", "exec busy at 0.75 x mean logic busy",
       "fig5a exec offload",
       [](json::Value& d) {
         json::Value& stages = member(cop12(d), "stages");
         double logic = 0;
         int n = 0;
         for (json::Value& s : stages.items)
           if (member(s, "name").string.starts_with("logic-")) {
             logic += member(s, "busy").number;
             ++n;
           }
         member(element(stages, "name", "exec"), "busy").number =
             0.75 * logic / n;
       }},
      {"BENCH_fig5a.json", "COP@12 at 399,599 ops/s",
       "fig5a COP@12 floor at 400 ms",
       [](json::Value& d) {
         member(cop12(d), "throughput_ops").number = 399'599;
       }},
      {"BENCH_fig5a.json", "a 20 ms run with COP@12 at 389,999 ops/s",
       "fig5a COP@12 floor at 20 ms",
       [](json::Value& d) {
         member(d, "measure_ns").number = 20'000'000;
         member(cop12(d), "throughput_ops").number = 389'999;
       }},
      {"BENCH_ingress.json", "few_clients sheds one frame",
       "ingress admission",
       [](json::Value& d) {
         member(soak_cell(d, "few_clients"), "ingress_shed").number = 1;
       }},
      {"BENCH_ingress.json", "many_clients drops one frame at the deadline",
       "ingress admission",
       [](json::Value& d) {
         member(soak_cell(d, "many_clients"), "ingress_deadline_drops")
             .number = 1;
       }},
      {"BENCH_ingress.json", "few_clients records no ingress_shed",
       "ingress admission",
       [](json::Value& d) {
         json::Value& cell = soak_cell(d, "few_clients");
         *std::find(cell.keys.begin(), cell.keys.end(), "ingress_shed") =
             "renamed";
       }},
      {"BENCH_ingress.json", "overload sheds nothing", "ingress admission",
       [](json::Value& d) {
         member(soak_cell(d, "overload"), "ingress_shed").number = 0;
       }},
      {"BENCH_ingress.json", "one blocking pillar push under overload",
       "ingress admission",
       [](json::Value& d) {
         member(soak_cell(d, "overload"), "pillar_blocked_pushes_delta")
             .number = 1;
       }},
      {"BENCH_ingress.json", "few_clients completes nothing",
       "ingress admission",
       [](json::Value& d) {
         member(soak_cell(d, "few_clients"), "completed_ops").number = 0;
       }},
      {"BENCH_ingress.json", "many_clients peak one below its connections",
       "ingress admission",
       [](json::Value& d) {
         json::Value& many = soak_cell(d, "many_clients");
         member(many, "peak_accepted_conns").number =
             member(many, "connections").number - 1;
       }},
      {"BENCH_ingress.json", "many_clients at 0.89 x few_clients",
       "ingress admission",
       [](json::Value& d) {
         member(soak_cell(d, "many_clients"), "throughput_ops").number =
             0.89 * member(soak_cell(d, "few_clients"), "throughput_ops")
                        .number;
       }},
      {"BENCH_ingress.json", "a full-scale soak with 9,999 connections",
       "full-scale soak",
       [](json::Value& d) {
         member(soak_cell(d, "many_clients"), "connections").number = 9'999;
       }},
      {"BENCH_ingress.json", "a full-scale soak peaking at 9,999",
       "full-scale soak",
       [](json::Value& d) {
         member(soak_cell(d, "many_clients"), "peak_accepted_conns").number =
             9'999;
       }},
  };

  for (const Mutation& m : mutations) {
    SCOPED_TRACE(std::string(m.artifact) + ": " + m.change);
    json::Value doc = load(m.artifact);
    ASSERT_TRUE(bench::check_gates(doc).empty()) << "unmutated artifact";
    m.apply(doc);
    EXPECT_TRUE(gate_failed(bench::check_gates(doc), m.gate))
        << "gate \"" << m.gate << "\" did not fail";
  }
}

}  // namespace
}  // namespace copbft::test
