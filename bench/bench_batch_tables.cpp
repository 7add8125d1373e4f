// Batch driver for the three paper tables: runs every Table I / II-a /
// II-b configuration as one task list through the batch executor and
// writes one merged JSON report — the checked-in BENCH_seed.json baseline
// (see EXPERIMENTS.md "Benchmark baseline").
//
// Usage:
//   bench_batch_tables [--jobs=N] [--compare-jobs=M] [--order=decl|auto]
//                      [--table=1|2|3|all] [--metrics-json=FILE]
//                      [--trace-out=FILE]
//
// --compare-jobs runs the sweep a second time at M jobs and reports the
// wall-clock ratio (the batching speedup; meaningful only on multi-core
// hardware — this is the number the ROADMAP's scaling trajectory tracks).
//
// --order=auto picks a static variable order per task (the interleave and
// adjacency heuristics are its candidates; forcing one of them on a
// hostile family blows up — EXPERIMENTS.md "Variable order"); --table
// restricts the sweep to one paper table. CI sweeps --order=auto against
// the committed BENCH_order.json baseline.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "repair/batch.hpp"
#include "support/cli.hpp"
#include "symbolic/order_heur.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "table_specs.hpp"

int main(int argc, char** argv) {
  const lr::support::CommandLine cli(argc, argv);
  static const char* const kFlags[] = {"jobs",  "compare-jobs", "order",
                                       "table", "metrics-json", "trace-out"};
  for (const std::string& name : cli.option_names()) {
    if (std::find(std::begin(kFlags), std::end(kFlags), name) ==
        std::end(kFlags)) {
      std::fprintf(stderr, "unknown option --%s\n", name.c_str());
      return 2;
    }
  }
  const std::string trace_path = cli.get("trace-out", "");
  if (!trace_path.empty()) lr::support::trace::start();

  const std::string which_table = cli.get("table", "all");
  std::vector<lr::repair::BatchTask> tasks;
  if (which_table == "all" || which_table == "1") {
    for (auto& t : lr::bench::table1_tasks()) tasks.push_back(std::move(t));
  }
  if (which_table == "all" || which_table == "2") {
    for (auto& t : lr::bench::table2_tasks()) tasks.push_back(std::move(t));
  }
  if (which_table == "all" || which_table == "3") {
    for (auto& t : lr::bench::table3_tasks()) tasks.push_back(std::move(t));
  }
  if (tasks.empty()) {
    std::fprintf(stderr, "unknown table '%s' (1|2|3|all)\n",
                 which_table.c_str());
    return 2;
  }

  if (cli.has("order")) {
    const std::string order_arg = cli.get("order", "");
    if (order_arg != "decl" && order_arg != "auto") {
      std::fprintf(stderr, "unknown order mode '%s' (decl|auto)\n",
                   order_arg.c_str());
      return 2;
    }
    const lr::sym::order::Mode mode = *lr::sym::order::parse_mode(order_arg);
    for (lr::repair::BatchTask& task : tasks) task.options.order_mode = mode;
  }

  const auto jobs = static_cast<std::size_t>(cli.get_int(
      "jobs",
      static_cast<std::int64_t>(lr::support::ThreadPool::hardware_threads())));

  lr::repair::BatchOptions options;
  options.jobs = jobs == 0 ? 1 : jobs;
  options.metrics_prefix = "bench";
  const lr::repair::BatchReport report =
      lr::repair::run_batch(tasks, options);

  lr::support::Table table({"Instance", "Algorithm", "Reachable states",
                            "Step 1", "Step 2", "Total", "|S'|", "Result"});
  for (const lr::repair::BatchItemResult& item : report.items) {
    table.add_row({item.name, item.algorithm,
                   lr::support::format_state_count(item.stats.reachable_states),
                   lr::support::format_duration(item.stats.step1_seconds),
                   lr::support::format_duration(item.stats.step2_seconds),
                   lr::support::format_duration(item.seconds),
                   lr::support::format_state_count(item.stats.invariant_states),
                   item.ok() ? "ok" : "FAILED"});
  }
  std::printf("=== Tables I + II-a + II-b, batched ===\n");
  table.print(std::cout);
  std::printf("\nsweep: %zu/%zu ok, wall %.3fs (jobs=%zu)\n",
              report.ok_count(), report.items.size(), report.wall_seconds,
              report.jobs);

  lr::support::metrics::Registry& m = lr::support::metrics::registry();
  const std::int64_t compare_jobs = cli.get_int("compare-jobs", 0);
  if (compare_jobs > 0) {
    lr::repair::BatchOptions compare_options;
    compare_options.jobs = static_cast<std::size_t>(compare_jobs);
    compare_options.record_metrics = false;  // keep per-task keys from run 1
    const lr::repair::BatchReport compare =
        lr::repair::run_batch(tasks, compare_options);
    const double speedup = compare.wall_seconds > 0.0
                               ? compare.wall_seconds / report.wall_seconds
                               : 0.0;
    std::printf("compare: wall %.3fs at jobs=%zu vs %.3fs at jobs=%zu "
                "(speedup %.2fx)\n",
                compare.wall_seconds, compare.jobs, report.wall_seconds,
                report.jobs, speedup);
    m.set_gauge("bench.compare.jobs", static_cast<double>(compare.jobs));
    m.set_gauge("bench.compare.wall_seconds", compare.wall_seconds);
    m.set_gauge("bench.compare.speedup", speedup);
  }
  m.set_gauge("bench.hardware_threads",
              static_cast<double>(lr::support::ThreadPool::hardware_threads()));

  const std::string metrics_path = cli.get("metrics-json", "");
  bool ok = true;
  if (!trace_path.empty()) {
    lr::support::trace::stop();
    if (!lr::support::trace::write_chrome_json_file(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      ok = false;
    }
  }
  if (!metrics_path.empty() &&
      !lr::support::metrics::write_json_file(metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    ok = false;
  }
  return ok && report.failed_count() == 0 ? 0 : 1;
}
