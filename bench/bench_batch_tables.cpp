// The driver for the paper's experiments: Table I (BA^n, lazy vs.
// cautious), Table II-a (BAFS^n), Table II-b (Sc^n, domain 8) and
// Ablation A1 (the Step-1 reachability heuristic on BAFS^n). Every row of
// the chosen tables runs as one task list through the batch executor, and
// a repair that two artifacts share (A1's reachable rows are Table II-a's
// lazy rows) runs once; the driver then prints one titled table per
// artifact. `Steps` is the task's
// op-cache lookups (stats.bdd.cache_lookups): deterministic work, the same
// at every --jobs, printed next to the seconds, which are not.
//
// Usage:
//   bench_batch_tables [--table=1|2|3|a1|all] [--jobs=N]
//                      [--metrics-json=FILE] [--trace-out=FILE]
//
// --table picks one artifact (default all four). --jobs sets the number of
// concurrent repairs (default: the hardware threads). Exits 0 when every
// row repaired, 1 when a row failed or a report could not be written, 2 on
// a usage error.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "repair/batch.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "table_specs.hpp"

namespace {

using lr::repair::BatchTask;

/// One printed row: a repair of the sweep and the label it prints under.
struct Row {
  std::size_t task;   ///< index into the sweep's task list
  std::string label;  ///< the row's own algorithm label; empty: the task's
};

struct Artifact {
  const char* title;
  std::vector<Row> rows;
};

/// Appends `artifact_tasks` to the sweep, reusing an earlier task that
/// makes the same repair (name, algorithm, Step-1 restriction), and returns
/// the artifact's rows in order.
std::vector<Row> add_rows(std::vector<BatchTask>& sweep,
                          std::vector<BatchTask> artifact_tasks) {
  std::vector<Row> rows;
  for (BatchTask& task : artifact_tasks) {
    std::string label = task.algorithm_label;
    const auto same = std::find_if(
        sweep.begin(), sweep.end(), [&task](const BatchTask& kept) {
          return kept.name == task.name && kept.algorithm == task.algorithm &&
                 kept.options.restrict_to_reachable ==
                     task.options.restrict_to_reachable;
        });
    const auto index = static_cast<std::size_t>(same - sweep.begin());
    if (same == sweep.end()) sweep.push_back(std::move(task));
    rows.push_back({index, std::move(label)});
  }
  return rows;
}

/// Ablation A1: lazy repair on BAFS^n with and without the Step-1
/// restriction to the states the fault-intolerant program reaches under
/// faults (paper, Section V-A: "a pure lazy repair approach does not
/// improve the performance"). BAFS's full space (24^n states) dwarfs its
/// reachable set, which makes the contrast visible.
std::vector<BatchTask> ablation_a1_tasks() {
  std::vector<BatchTask> tasks;
  for (const bool heuristic : {true, false}) {
    for (const std::size_t n : {4, 6, 8, 10}) {
      BatchTask task = lr::bench::byzantine_task(
          n, true, BatchTask::Algorithm::kLazy,
          lr::repair::GroupMethod::kOneShot);
      task.options.restrict_to_reachable = heuristic;
      task.algorithm_label = heuristic ? "lazy (reachable)"
                                       : "lazy (full space)";
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

}  // namespace

int main(int argc, char** argv) {
  const lr::support::CommandLine cli(argc, argv);
  static const char* const kFlags[] = {"jobs", "table", "metrics-json",
                                       "trace-out"};
  for (const std::string& name : cli.option_names()) {
    if (std::find(std::begin(kFlags), std::end(kFlags), name) ==
        std::end(kFlags)) {
      std::fprintf(stderr, "unknown option --%s\n", name.c_str());
      return 2;
    }
  }

  using lr::bench::distinct_repairs;
  const std::string which = cli.get("table", "all");
  // One batch over every artifact's rows, so --jobs spreads the whole
  // sweep; results come back in task order.
  std::vector<BatchTask> tasks;
  std::vector<Artifact> artifacts;
  if (which == "all" || which == "1") {
    artifacts.push_back(
        {"Table I — Byzantine agreement: cautious vs. lazy",
         add_rows(tasks, distinct_repairs(lr::bench::table1_tasks()))});
  }
  if (which == "all" || which == "2") {
    artifacts.push_back(
        {"Table II-a — Byzantine agreement with fail-stop faults",
         add_rows(tasks, distinct_repairs(lr::bench::table2_tasks()))});
  }
  if (which == "all" || which == "3") {
    artifacts.push_back(
        {"Table II-b — Stabilizing chain (domain 8)",
         add_rows(tasks, distinct_repairs(lr::bench::table3_tasks()))});
  }
  if (which == "all" || which == "a1") {
    artifacts.push_back({"Ablation A1 — Step-1 reachability heuristic",
                         add_rows(tasks, ablation_a1_tasks())});
  }
  if (artifacts.empty()) {
    std::fprintf(stderr, "unknown table '%s' (1|2|3|a1|all)\n", which.c_str());
    return 2;
  }

  const std::string trace_path = cli.get("trace-out", "");
  if (!trace_path.empty()) lr::support::trace::start();

  const auto jobs = cli.get_int(
      "jobs",
      static_cast<std::int64_t>(lr::support::ThreadPool::hardware_threads()));
  lr::repair::BatchOptions options;
  options.jobs = jobs < 1 ? 1 : static_cast<std::size_t>(jobs);
  options.metrics_prefix = "bench";
  const lr::repair::BatchReport report = lr::repair::run_batch(tasks, options);

  for (const Artifact& artifact : artifacts) {
    lr::support::Table table({"Instance", "Algorithm", "Reachable states",
                              "Step 1", "Step 2", "Total", "Steps",
                              "S' states", "Result"});
    for (const Row& row : artifact.rows) {
      const lr::repair::BatchItemResult& item = report.items[row.task];
      // Cautious repair has no Step 2: its one phase is reported as Step 1.
      const bool cautious =
          tasks[row.task].algorithm == BatchTask::Algorithm::kCautious;
      table.add_row(
          {item.name, row.label.empty() ? item.algorithm : row.label,
           lr::support::format_state_count(item.stats.reachable_states),
           lr::support::format_duration(item.stats.step1_seconds),
           cautious ? "-"
                    : lr::support::format_duration(item.stats.step2_seconds),
           lr::support::format_duration(item.seconds),
           std::to_string(item.stats.bdd.cache_lookups),
           lr::support::format_state_count(item.stats.invariant_states),
           item.ok() ? "ok" : "FAILED"});
    }
    std::printf("=== %s ===\n", artifact.title);
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf("sweep: %zu/%zu ok, wall %.3fs (jobs=%zu)\n", report.ok_count(),
              report.items.size(), report.wall_seconds, report.jobs);
  lr::support::metrics::registry().set_gauge(
      "bench.hardware_threads",
      static_cast<double>(lr::support::ThreadPool::hardware_threads()));

  bool ok = true;
  if (!trace_path.empty()) {
    lr::support::trace::stop();
    if (!lr::support::trace::write_chrome_json_file(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      ok = false;
    }
  }
  const std::string metrics_path = cli.get("metrics-json", "");
  if (!metrics_path.empty() &&
      !lr::support::metrics::write_json_file(metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    ok = false;
  }
  return ok && report.failed_count() == 0 ? 0 : 1;
}
