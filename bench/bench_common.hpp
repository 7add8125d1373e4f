#pragma once

// Shared scaffolding for the table-reproducing benchmarks: each benchmark
// run registers one row; after google-benchmark finishes, the binary prints
// the paper-style table assembled from those rows (this is what
// EXPERIMENTS.md quotes).
//
// Every bench binary also understands two observability flags (stripped
// from argv before google-benchmark sees them):
//   --metrics-json=FILE   write the metrics registry as a JSON run report
//   --trace-out=FILE      collect spans and write Chrome trace-event JSON

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "repair/batch.hpp"
#include "repair/report.hpp"
#include "repair/types.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"
#include "table_specs.hpp"

namespace lr::bench {

struct Row {
  std::string instance;
  std::string algorithm;
  double reachable = -1;
  double step1 = 0;
  double step2 = 0;
  double total = 0;
  double invariant_states = -1;
  bool ok = false;
};

inline std::vector<Row>& rows() {
  static std::vector<Row> storage;
  return storage;
}

inline void record(const std::string& instance, const std::string& algorithm,
                   const repair::RepairResult& result, double total_seconds) {
  rows().push_back(Row{instance, algorithm, result.stats.reachable_states,
                       result.stats.step1_seconds, result.stats.step2_seconds,
                       total_seconds, result.stats.invariant_states,
                       result.success});
  // Mirror the run into the metrics registry so --metrics-json reports
  // carry per-instance numbers alongside the aggregate repair.*/bdd.* keys.
  repair::record_run_metrics(result.stats);
  repair::record_run_metrics(result.stats,
                             "bench." + instance + "." + algorithm);
  support::metrics::registry().add("bench.runs");
}

/// Prints the collected rows as one paper-style table.
inline void print_table(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
  support::Table table({"Instance", "Algorithm", "Reachable states",
                        "Step 1", "Step 2", "Total", "|S'|", "Result"});
  for (const Row& row : rows()) {
    table.add_row({row.instance, row.algorithm,
                   support::format_state_count(row.reachable),
                   support::format_duration(row.step1),
                   support::format_duration(row.step2),
                   support::format_duration(row.total),
                   support::format_state_count(row.invariant_states),
                   row.ok ? "ok" : "FAILED"});
  }
  table.print(std::cout);
}

/// Removes "--key=value" from argv (google-benchmark rejects flags it does
/// not know) and returns the value, or "" when absent.
inline std::string extract_flag(int* argc, char** argv, const char* key) {
  const std::string prefix = std::string(key) + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return value;
}

/// Batch path: runs the whole spec list as one repair::run_batch call
/// (`--batch-jobs=N` concurrent repairs, one BDD manager each) and prints
/// the same paper-style table from the batch report. Returns the process
/// exit code.
inline int run_batch_sweep(const std::string& title,
                           const std::vector<repair::BatchTask>& tasks,
                           std::size_t jobs) {
  repair::BatchOptions options;
  options.jobs = jobs;
  options.metrics_prefix = "bench";
  const repair::BatchReport report =
      repair::run_batch(distinct_repairs(tasks), options);
  for (const repair::BatchItemResult& item : report.items) {
    rows().push_back(Row{item.name, item.algorithm,
                         item.stats.reachable_states,
                         item.stats.step1_seconds, item.stats.step2_seconds,
                         item.seconds, item.stats.invariant_states,
                         item.ok()});
  }
  print_table(title);
  std::cout << "\nbatch sweep: " << report.ok_count() << "/"
            << report.items.size() << " ok, wall "
            << support::format_duration(report.wall_seconds)
            << " (jobs=" << report.jobs << ")\n";
  support::metrics::registry().add("bench.runs", tasks.size());
  return report.failed_count() == 0 ? 0 : 1;
}

/// Writes the observability artifacts requested on the command line.
inline void write_reports(const std::string& trace_path,
                          const std::string& metrics_path) {
  if (!trace_path.empty()) {
    support::trace::stop();
    if (!support::trace::write_chrome_json_file(trace_path)) {
      std::cerr << "cannot write " << trace_path << "\n";
    }
  }
  if (!metrics_path.empty() && !repair::write_metrics_report(metrics_path)) {
    std::cerr << "cannot write " << metrics_path << "\n";
  }
}

}  // namespace lr::bench

/// Custom main: run benchmarks, then print the assembled table and any
/// requested observability artifacts.
#define LR_BENCH_MAIN(TITLE)                                              \
  int main(int argc, char** argv) {                                       \
    const std::string lr_metrics_path =                                   \
        ::lr::bench::extract_flag(&argc, argv, "--metrics-json");         \
    const std::string lr_trace_path =                                     \
        ::lr::bench::extract_flag(&argc, argv, "--trace-out");            \
    if (!lr_trace_path.empty()) ::lr::support::trace::start();            \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    ::lr::bench::print_table(TITLE);                                      \
    ::lr::bench::write_reports(lr_trace_path, lr_metrics_path);           \
    return 0;                                                             \
  }

/// Like LR_BENCH_MAIN, but the binary also understands --batch-jobs=N:
/// when given, the google-benchmark path is skipped and SPECS_FN()'s task
/// list runs concurrently through the batch executor instead.
#define LR_BENCH_MAIN_WITH_BATCH(TITLE, SPECS_FN)                         \
  int main(int argc, char** argv) {                                       \
    const std::string lr_metrics_path =                                   \
        ::lr::bench::extract_flag(&argc, argv, "--metrics-json");         \
    const std::string lr_trace_path =                                     \
        ::lr::bench::extract_flag(&argc, argv, "--trace-out");            \
    const std::string lr_batch_jobs =                                     \
        ::lr::bench::extract_flag(&argc, argv, "--batch-jobs");           \
    if (!lr_trace_path.empty()) ::lr::support::trace::start();            \
    int lr_exit = 0;                                                      \
    if (!lr_batch_jobs.empty()) {                                         \
      const long jobs = std::strtol(lr_batch_jobs.c_str(), nullptr, 10);  \
      lr_exit = ::lr::bench::run_batch_sweep(                             \
          TITLE, SPECS_FN(), jobs < 1 ? 1 : static_cast<std::size_t>(jobs)); \
    } else {                                                              \
      ::benchmark::Initialize(&argc, argv);                               \
      if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
      ::benchmark::RunSpecifiedBenchmarks();                              \
      ::benchmark::Shutdown();                                            \
      ::lr::bench::print_table(TITLE);                                    \
    }                                                                     \
    ::lr::bench::write_reports(lr_trace_path, lr_metrics_path);           \
    return lr_exit;                                                       \
  }
