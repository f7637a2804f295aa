// Content gates for the BENCH_*.json artifacts: the one implementation
// behind bench/validate_bench_json (CI, tier-1 and local runs) and
// ingress_soak's exit status. Thresholds, and why each holds, are in
// docs/performance.md "Guardrails".
//
// A gate keys on what the artifact records (its `figure`, `measure_ns` or
// `soak_clients`), never on a flag, so a committed file meets the same
// floors wherever it is checked. Scenario artifacts carry no `figure`;
// bench/scenarios' exit status and CI's byte-identity check gate them.
#pragma once

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace copbft::bench {

/// Collects one gate's failures. Every member a gate reads goes through
/// number(), so a missing or mistyped one fails the gate instead of
/// reading as zero.
struct GateCheck {
  /// Member `key` of `obj`; NaN, which fails every comparison, when it is
  /// absent or not a number.
  double number(const json::Value& obj, std::string_view key) {
    const json::Value* v = obj.find(key);
    if (v && v->kind == json::Value::Kind::kNumber) return v->number;
    failures.push_back("no number \"" + std::string(key) + "\"");
    return NAN;
  }
  void expect(bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  }

  std::vector<std::string> failures;
};

/// %.6g, as the artifacts print numbers.
inline std::string show(double v) {
  std::string out;
  json::append(out, v);
  return out;
}

inline std::string_view figure(const json::Value& doc) {
  const json::Value* f = doc.find("figure");
  return f ? std::string_view(f->string) : std::string_view();
}

/// A recorded number, or NaN (which no gate key matches).
inline double recorded(const json::Value& doc, std::string_view key) {
  const json::Value* v = doc.find(key);
  return v && v->kind == json::Value::Kind::kNumber ? v->number : NAN;
}

/// The element of `doc`'s array `array` whose string member `key` is
/// `name` and, when `cores` is given, whose `cores` equals it.
inline const json::Value* element(const json::Value& doc, const char* array,
                                  const char* key, std::string_view name,
                                  GateCheck& c, double cores = NAN) {
  if (const json::Value* list = doc.find(array))
    for (const json::Value& e : list->items)
      if (const json::Value* v = e.find(key);
          v && v->string == name &&
          (std::isnan(cores) || c.number(e, "cores") == cores))
        return &e;
  c.expect(false, "no " + std::string(name) + " in \"" + array + "\"");
  return nullptr;
}

/// fig5a's COP@12 cell, the paper's headline configuration, must reach
/// `floor` ops/s.
inline void cop12_floor(const json::Value& doc, GateCheck& c, double floor) {
  const json::Value* cell = element(doc, "results", "system", "COP", c, 12);
  if (!cell) return;
  const double ops = c.number(*cell, "throughput_ops");
  c.expect(ops >= floor,
           "COP@12 throughput_ops " + show(ops) + " < " + show(floor));
}

struct Gate {
  const char* name;
  bool (*applies)(const json::Value& doc);
  void (*check)(const json::Value& doc, GateCheck& c);
};

inline const std::vector<Gate>& gates() {
  using json::Value;
  static const std::vector<Gate> table = {
      {"fig cells",
       [](const Value& doc) { return figure(doc).starts_with("fig"); },
       [](const Value& doc, GateCheck& c) {
         const Value* results = doc.find("results");
         c.expect(results && !results->items.empty(), "no results");
         if (!results) return;
         for (const Value& cell : results->items) {
           const double ops = c.number(cell, "throughput_ops");
           c.expect(ops > 0, "a cell's throughput_ops is " + show(ops));
           const Value* stages = cell.find("stages");
           c.expect(stages && !stages->items.empty(),
                    "a cell has no per-stage series");
         }
       }},
      // The simulator models the paper's offloads (§4.3.1, §4.3.2), so the
      // execute-only stage must sit well below the pillar logic.
      {"fig5a exec offload",
       [](const Value& doc) { return figure(doc) == "fig5a"; },
       [](const Value& doc, GateCheck& c) {
         const Value* cell = element(doc, "results", "system", "COP", c, 12);
         if (!cell) return;
         const Value* stages = cell->find("stages");
         if (!stages) return c.expect(false, "COP@12 has no stages");
         double exec = NAN, logic = 0;
         int pillars = 0;
         for (const Value& stage : stages->items) {
           const Value* name = stage.find("name");
           if (!name) continue;
           if (name->string == "exec") exec = c.number(stage, "busy");
           if (name->string.starts_with("logic-")) {
             logic += c.number(stage, "busy");
             ++pillars;
           }
         }
         c.expect(pillars > 0, "no logic-* stages");
         logic /= pillars;
         c.expect(exec < 0.75 * logic, "exec busy " + show(exec) +
                                           " >= 0.75 x mean logic busy " +
                                           show(logic));
       }},
      // The committed artifact is the 400 ms run. The reduced 20 ms window
      // truncates the ramp, so it has its own deterministic anchor.
      {"fig5a COP@12 floor at 400 ms",
       [](const Value& doc) {
         return figure(doc) == "fig5a" &&
                recorded(doc, "measure_ns") == 400'000'000;
       },
       [](const Value& doc, GateCheck& c) { cop12_floor(doc, c, 399'600); }},
      {"fig5a COP@12 floor at 20 ms",
       [](const Value& doc) {
         return figure(doc) == "fig5a" &&
                recorded(doc, "measure_ns") == 20'000'000;
       },
       [](const Value& doc, GateCheck& c) { cop12_floor(doc, c, 390'000); }},
      {"ingress admission",
       [](const Value& doc) { return figure(doc) == "ingress_soak"; },
       [](const Value& doc, GateCheck& c) {
         const Value* few = element(doc, "cells", "cell", "few_clients", c);
         const Value* many = element(doc, "cells", "cell", "many_clients", c);
         const Value* over = element(doc, "cells", "cell", "overload", c);
         if (!few || !many || !over) return;
         for (const Value* cell : {few, many}) {
           const std::string& name = cell->find("cell")->string;
           c.expect(c.number(*cell, "ingress_shed") == 0,
                    name + " shed frames");
           c.expect(c.number(*cell, "ingress_deadline_drops") == 0,
                    name + " dropped frames at the deadline");
         }
         c.expect(c.number(*over, "ingress_shed") > 0,
                  "overload shed nothing");
         for (const Value* cell : {few, many, over}) {
           const std::string& name = cell->find("cell")->string;
           c.expect(c.number(*cell, "pillar_blocked_pushes_delta") == 0,
                    name + ": a pillar queue saw a blocking push");
           c.expect(c.number(*cell, "completed_ops") > 0,
                    name + " completed nothing");
         }
         const double peak = c.number(*many, "peak_accepted_conns");
         const double conns = c.number(*many, "connections");
         c.expect(peak >= conns, "many_clients peak_accepted_conns " +
                                     show(peak) + " < connections " +
                                     show(conns));
         const double many_ops = c.number(*many, "throughput_ops");
         const double few_ops = c.number(*few, "throughput_ops");
         c.expect(many_ops >= 0.9 * few_ops,
                  "many_clients throughput_ops " + show(many_ops) +
                      " < 0.9 x few_clients " + show(few_ops));
       }},
      {"full-scale soak",
       [](const Value& doc) {
         return figure(doc) == "ingress_soak" &&
                recorded(doc, "soak_clients") >= 2'500;
       },
       [](const Value& doc, GateCheck& c) {
         const Value* many = element(doc, "cells", "cell", "many_clients", c);
         if (!many) return;
         for (const char* key : {"connections", "peak_accepted_conns"}) {
           const double n = c.number(*many, key);
           c.expect(n >= 10'000, std::string("many_clients ") + key + " " +
                                     show(n) + " < 10000");
         }
       }},
  };
  return table;
}

/// Runs every gate that applies to `doc`; one "gate: reason" per failure.
inline std::vector<std::string> check_gates(const json::Value& doc) {
  std::vector<std::string> failures;
  for (const Gate& gate : gates()) {
    if (!gate.applies(doc)) continue;
    GateCheck c;
    gate.check(doc, c);
    for (const std::string& why : c.failures)
      failures.push_back(std::string(gate.name) + ": " + why);
  }
  return failures;
}

}  // namespace copbft::bench
