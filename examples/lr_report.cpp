// Compares two --metrics-json run reports and gates on regressions, diffs
// two repair decision journals, or diffs two collapsed flamegraphs.
//
// Usage:
//   lr_report BASELINE.json CURRENT.json [options]
//   lr_report --journal A.jsonl B.jsonl       (decision-journal diff)
//   lr_report --flame A.collapsed B.collapsed (call-path profile diff)
//
//   --key=NAME        gate metric (default bench.wall_seconds)
//   --max-ratio=R     fail when current/baseline of the gate metric
//                     exceeds R (default 2.0); with --flame the gate is
//                     the total collapsed weight
//   --filter=SUBSTR   only list keys containing SUBSTR
//   --all             list every shared key (default: only keys whose
//                     ratio moved by >= 10%, plus the gate metric)
//   --top=N           with --flame: list the N fastest-growing and
//                     fastest-shrinking call paths (default 10)
//   --journal         treat the two positionals as repair journals
//                     (repair_cli --journal output) and print a
//                     side-by-side decision comparison
//   --flame           treat the two positionals as collapsed-stack
//                     flamegraphs (repair_cli --flamegraph output)
//
// Prints an aligned diff table (key, baseline, current, ratio) and exits
// 0 when the gate metric is within bounds, 1 on a regression, 2 on a
// usage or parse error. Keys present on only one side and ratios with a
// zero baseline print "n/a" instead of being skipped or dividing by
// zero; a zero-baseline gate with a nonzero current fails the gate. CI
// runs the --flame form against the committed BENCH_flame.collapsed, so
// a growth in the repair engine's symbolic work fails the build instead
// of landing silently.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

constexpr const char* kDefaultKey = "bench.wall_seconds";
constexpr double kListThreshold = 0.10;  ///< |ratio - 1| to list by default

/// Flattens the "counters" and "gauges" objects of a metrics report into
/// one key -> value map. Returns false on unreadable or malformed input.
bool load_report(const std::string& path, std::map<std::string, double>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "lr_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = lr::support::json_parse(buffer.str());
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "lr_report: %s is not a JSON object\n", path.c_str());
    return false;
  }
  for (const char* section : {"counters", "gauges"}) {
    const lr::support::JsonValue* group = doc->find(section);
    if (group == nullptr) continue;
    if (!group->is_object()) {
      std::fprintf(stderr, "lr_report: %s: \"%s\" is not an object\n",
                   path.c_str(), section);
      return false;
    }
    for (const auto& [key, value] : group->object) {
      if (value.is_number()) out[key] = value.number;
    }
  }
  return true;
}

std::string format_value(double value) {
  char buffer[64];
  if (std::nearbyint(value) == value && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  }
  return buffer;
}

std::string format_ratio(double baseline, double current) {
  // A zero baseline has no meaningful ratio: "n/a", never a division.
  if (baseline == 0.0) return current == 0.0 ? "1.00" : "n/a";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", current / baseline);
  return buffer;
}

/// Decision-relevant aggregates of one repair journal (repair_cli
/// --journal output): what the side-by-side lazy-vs-cautious table shows.
struct JournalSummary {
  std::string algorithm = "?";
  std::string model;
  std::string result = "?";
  double rounds = 0;
  double groups_accepted = 0;
  double trans_accepted = 0;
  /// Transitions pruned during the pre-Repair analysis ("analysis.*"
  /// phases: cautious group closure) vs during the Repair phase itself
  /// ("repair.*" phases: realize closure, livelock elimination). The
  /// lazy-vs-cautious contrast the paper claims is exactly
  /// analysis-pruned(cautious) >> analysis-pruned(lazy) == 0.
  double analysis_pruned_trans = 0;
  double repair_pruned_trans = 0;
  double deadlock_rounds = 0;
  double deadlock_states = 0;
};

bool load_journal(const std::string& path, JournalSummary& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "lr_report: cannot open %s\n", path.c_str());
    return false;
  }
  const auto num = [](const lr::support::JsonValue& event, const char* key) {
    const lr::support::JsonValue* value = event.find(key);
    return value != nullptr && value->is_number() ? value->number : 0.0;
  };
  const auto text = [](const lr::support::JsonValue& event, const char* key) {
    const lr::support::JsonValue* value = event.find(key);
    return value != nullptr && value->is_string() ? value->string
                                                  : std::string();
  };
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto event = lr::support::json_parse(line);
    if (!event || !event->is_object()) {
      std::fprintf(stderr, "lr_report: %s:%zu: not a JSON object\n",
                   path.c_str(), line_no);
      return false;
    }
    const std::string kind = text(*event, "event");
    if (kind == "journal") {  // header line
      out.algorithm = text(*event, "algorithm");
      out.model = text(*event, "model");
    } else if (kind == "round_start") {
      out.rounds += 1;
    } else if (kind == "group") {
      out.groups_accepted += 1;
      out.trans_accepted += num(*event, "trans");
    } else if (kind == "prune") {
      if (text(*event, "phase").rfind("analysis.", 0) == 0) {
        out.analysis_pruned_trans += num(*event, "trans");
      } else {
        out.repair_pruned_trans += num(*event, "trans");
      }
    } else if (kind == "deadlock_round") {
      out.deadlock_rounds += 1;
      out.deadlock_states += num(*event, "states");
    } else if (kind == "run_end") {
      out.result = num(*event, "success") != 0.0 ? "success" : "failed";
    }
  }
  if (line_no == 0) {
    std::fprintf(stderr, "lr_report: %s is empty\n", path.c_str());
    return false;
  }
  return true;
}

/// `--journal A B`: side-by-side decision comparison of two repair
/// journals (typically lazy vs cautious on the same model).
int run_journal_diff(const std::string& path_a, const std::string& path_b) {
  JournalSummary a;
  JournalSummary b;
  if (!load_journal(path_a, a) || !load_journal(path_b, b)) return 2;
  std::string col_a = a.algorithm;
  std::string col_b = b.algorithm;
  if (col_a == col_b) {  // same algorithm twice: fall back to the paths
    col_a = path_a;
    col_b = path_b;
  }
  std::printf("journal diff: %s vs %s\n", path_a.c_str(), path_b.c_str());
  lr::support::Table table({"decision metric", col_a, col_b});
  table.add_row({"model", a.model, b.model});
  table.add_row({"result", a.result, b.result});
  table.add_row({"rounds", format_value(a.rounds), format_value(b.rounds)});
  table.add_row({"groups accepted", format_value(a.groups_accepted),
                 format_value(b.groups_accepted)});
  table.add_row({"transitions accepted", format_value(a.trans_accepted),
                 format_value(b.trans_accepted)});
  table.add_row({"transitions pruned pre-Repair (analysis)",
                 format_value(a.analysis_pruned_trans),
                 format_value(b.analysis_pruned_trans)});
  table.add_row({"transitions pruned in Repair phase",
                 format_value(a.repair_pruned_trans),
                 format_value(b.repair_pruned_trans)});
  table.add_row({"deadlock rounds", format_value(a.deadlock_rounds),
                 format_value(b.deadlock_rounds)});
  table.add_row({"deadlock states banned", format_value(a.deadlock_states),
                 format_value(b.deadlock_states)});
  table.print(std::cout);
  return 0;
}

/// Parses a collapsed-stack flamegraph ("a;b;c <weight>" per line) into a
/// path -> weight map. Duplicate paths accumulate.
bool load_collapsed(const std::string& path,
                    std::map<std::string, double>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "lr_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::size_t split = line.rfind(' ');
    if (split == std::string::npos || split == 0) {
      std::fprintf(stderr, "lr_report: %s:%zu: expected \"path weight\"\n",
                   path.c_str(), line_no);
      return false;
    }
    char* end = nullptr;
    const std::string weight_text = line.substr(split + 1);
    const double weight = std::strtod(weight_text.c_str(), &end);
    if (end == weight_text.c_str() || *end != '\0' || weight < 0.0) {
      std::fprintf(stderr, "lr_report: %s:%zu: bad weight '%s'\n",
                   path.c_str(), line_no, weight_text.c_str());
      return false;
    }
    out[line.substr(0, split)] += weight;
  }
  return true;
}

/// `--flame A B`: diff two collapsed flamegraphs — total-weight gate plus
/// the top-N growing and shrinking call paths.
int run_flame_diff(const std::string& path_a, const std::string& path_b,
                   double max_ratio, std::size_t top) {
  std::map<std::string, double> base;
  std::map<std::string, double> cur;
  if (!load_collapsed(path_a, base) || !load_collapsed(path_b, cur)) return 2;

  double base_total = 0.0;
  double cur_total = 0.0;
  for (const auto& [path, weight] : base) base_total += weight;
  for (const auto& [path, weight] : cur) cur_total += weight;

  // Union of paths with signed weight deltas; one-sided paths count with
  // an implicit 0 on the missing side (they appeared or vanished).
  std::vector<std::pair<std::string, double>> deltas;
  for (const auto& [path, weight] : base) {
    const auto it = cur.find(path);
    deltas.emplace_back(path, (it == cur.end() ? 0.0 : it->second) - weight);
  }
  for (const auto& [path, weight] : cur) {
    if (base.find(path) == base.end()) deltas.emplace_back(path, weight);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  std::printf("flame diff: %s (baseline, total %s) vs %s (total %s)\n",
              path_a.c_str(), format_value(base_total).c_str(),
              path_b.c_str(), format_value(cur_total).c_str());
  const auto list = [&deltas, &base, &cur](bool growing, std::size_t limit) {
    lr::support::Table table({"call path", "baseline", "current", "delta"});
    std::size_t shown = 0;
    const std::size_t n = deltas.size();
    for (std::size_t i = 0; i < n && shown < limit; ++i) {
      const auto& [path, delta] = deltas[growing ? i : n - 1 - i];
      if (growing ? delta <= 0.0 : delta >= 0.0) break;
      const auto base_it = base.find(path);
      const auto cur_it = cur.find(path);
      table.add_row(
          {path,
           base_it == base.end() ? "n/a" : format_value(base_it->second),
           cur_it == cur.end() ? "n/a" : format_value(cur_it->second),
           format_value(delta)});
      ++shown;
    }
    return std::make_pair(std::move(table), shown);
  };
  auto [growing_table, growing_count] = list(true, top);
  if (growing_count > 0) {
    std::printf("top growing paths:\n");
    growing_table.print(std::cout);
  }
  auto [shrinking_table, shrinking_count] = list(false, top);
  if (shrinking_count > 0) {
    std::printf("top shrinking paths:\n");
    shrinking_table.print(std::cout);
  }
  if (growing_count == 0 && shrinking_count == 0) {
    std::printf("no call-path weight changed\n");
  }

  // Same gate semantics as the metrics mode: a zero baseline with nonzero
  // current is a regression (the profile appeared from nothing).
  const bool gate_ok = base_total == 0.0 ? cur_total == 0.0
                                         : cur_total / base_total <= max_ratio;
  std::printf("gate: total weight ratio %s (max %.2f) -> %s\n",
              format_ratio(base_total, cur_total).c_str(), max_ratio,
              gate_ok ? "OK" : "FAIL");
  return gate_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const lr::support::CommandLine cli(argc, argv);
  const double max_ratio = [&cli] {
    const std::string text = cli.get("max-ratio", "2.0");
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    return (end != text.c_str() && parsed > 0.0) ? parsed : -1.0;
  }();
  if (max_ratio <= 0.0) {
    std::fprintf(stderr, "lr_report: bad --max-ratio value\n");
    return 2;
  }
  if (cli.has("flame")) {
    // Same parser quirk as --journal: "--flame A" binds A as the flag's
    // value; the collapsed files are that value plus the positionals.
    std::vector<std::string> paths;
    const std::string flag_value = cli.get("flame", "");
    if (!flag_value.empty()) paths.push_back(flag_value);
    paths.insert(paths.end(), cli.positional().begin(),
                 cli.positional().end());
    if (paths.size() != 2) {
      std::fprintf(stderr, "usage: %s --flame A.collapsed B.collapsed\n",
                   cli.program().c_str());
      return 2;
    }
    const std::size_t top = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.get_int("top", 10)));
    return run_flame_diff(paths[0], paths[1], max_ratio, top);
  }
  if (cli.has("journal")) {
    // The parser binds "--journal A" as the flag's value; the journal
    // paths are that value (when present) plus the positionals.
    std::vector<std::string> paths;
    const std::string flag_value = cli.get("journal", "");
    if (!flag_value.empty()) paths.push_back(flag_value);
    paths.insert(paths.end(), cli.positional().begin(),
                 cli.positional().end());
    if (paths.size() != 2) {
      std::fprintf(stderr, "usage: %s --journal A.jsonl B.jsonl\n",
                   cli.program().c_str());
      return 2;
    }
    return run_journal_diff(paths[0], paths[1]);
  }
  if (cli.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: %s BASELINE.json CURRENT.json [--key=NAME]\n"
                 "       [--max-ratio=R] [--filter=SUBSTR] [--all]\n"
                 "       %s --journal A.jsonl B.jsonl\n",
                 cli.program().c_str(), cli.program().c_str());
    return 2;
  }
  const std::string baseline_path = cli.positional()[0];
  const std::string current_path = cli.positional()[1];
  const std::string gate_key = cli.get("key", kDefaultKey);
  const std::string filter = cli.get("filter", "");
  const bool all = cli.has("all");

  std::map<std::string, double> baseline;
  std::map<std::string, double> current;
  if (!load_report(baseline_path, baseline) ||
      !load_report(current_path, current)) {
    return 2;
  }

  lr::support::Table table({"metric", "baseline", "current", "ratio"});
  std::size_t shared = 0;
  std::size_t listed = 0;     ///< shared keys that made the table
  std::size_t one_sided = 0;  ///< keys on one side only (always listed)
  // Union of both key sets: a key present on only one side is reported
  // with "n/a" on the other (it appeared or vanished — that is a change
  // worth listing), never silently skipped.
  std::map<std::string, char> keys;  // value unused
  for (const auto& [key, value] : baseline) keys.emplace(key, 0);
  for (const auto& [key, value] : current) keys.emplace(key, 0);
  for (const auto& [key, ignored] : keys) {
    const auto base_it = baseline.find(key);
    const auto cur_it = current.find(key);
    if (!filter.empty() && key.find(filter) == std::string::npos) {
      if (base_it != baseline.end() && cur_it != current.end()) ++shared;
      continue;
    }
    if (base_it == baseline.end() || cur_it == current.end()) {
      // One-sided keys are always listed but never counted as shared:
      // the "N of M shared keys" summary must compare like with like.
      ++one_sided;
      table.add_row(
          {key,
           base_it == baseline.end() ? "n/a" : format_value(base_it->second),
           cur_it == current.end() ? "n/a" : format_value(cur_it->second),
           "n/a"});
      continue;
    }
    ++shared;
    const double base_value = base_it->second;
    const double cur_value = cur_it->second;
    const bool moved =
        base_value == 0.0
            ? cur_value != 0.0
            : std::fabs(cur_value / base_value - 1.0) >= kListThreshold;
    if (!all && !moved && key != gate_key) continue;
    ++listed;
    table.add_row({key, format_value(base_value), format_value(cur_value),
                   format_ratio(base_value, cur_value)});
  }
  std::printf("comparing %s (baseline) vs %s\n", baseline_path.c_str(),
              current_path.c_str());
  if (listed + one_sided == 0) {
    std::printf("no %s keys to list (%zu shared)\n",
                filter.empty() ? "moved" : "matching", shared);
  } else {
    table.print(std::cout);
    if (!all && listed < shared) {
      std::printf("(%zu of %zu shared keys listed; --all for the rest)\n",
                  listed, shared);
    }
  }

  const auto base_gate = baseline.find(gate_key);
  const auto cur_gate = current.find(gate_key);
  if (base_gate == baseline.end() || cur_gate == current.end()) {
    std::fprintf(stderr, "lr_report: gate metric %s missing from %s\n",
                 gate_key.c_str(),
                 base_gate == baseline.end() ? baseline_path.c_str()
                                             : current_path.c_str());
    return 2;
  }
  // A zero baseline with a nonzero current has no finite ratio; it is
  // reported as n/a and treated as a regression (the metric appeared).
  const bool gate_ok =
      base_gate->second == 0.0
          ? cur_gate->second == 0.0
          : cur_gate->second / base_gate->second <= max_ratio;
  std::printf("gate: %s ratio %s (max %.2f) -> %s\n", gate_key.c_str(),
              format_ratio(base_gate->second, cur_gate->second).c_str(),
              max_ratio, gate_ok ? "OK" : "FAIL");
  return gate_ok ? 0 : 1;
}
