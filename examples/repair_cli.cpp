// Command-line front end: repair a model written in the textual format
// (see models/*.lr) without writing any C++.
//
// Usage:
//   repair_cli MODEL.lr [--cautious] [--no-heuristic]
//              [--level=masking|failsafe|nonmasking]
//              [--print-program] [--no-verify] [--stats]
//              [--journal=FILE] [--explain]
//              [--trace-out=FILE] [--metrics-json=FILE] [--log-level=LEVEL]
//   repair_cli --batch DIR [--jobs=N] [--resume] [--manifest=FILE]
//              [--task-timeout=SECS] [--retries=N] [shared options]
//
// The flag table lives in src/repair/cli_spec.cpp (single source of truth
// for --help, unknown-flag rejection and the README table; sync is
// regression-tested).
//
// Batch mode repairs every DIR/*.lr concurrently on a fixed-size thread
// pool (one BDD manager per task) and prints one deterministic per-model
// report: the stdout of `--jobs 8` is byte-identical to `--jobs 1`, and the
// stdout of a killed-and-resumed sweep is byte-identical to an
// uninterrupted one (timing goes to stderr and the metrics report only).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "bdd/meminfo.hpp"
#include "bdd/profile.hpp"
#include "casestudies/chain.hpp"
#include "lang/parser.hpp"
#include "repair/batch.hpp"
#include "repair/cautious.hpp"
#include "repair/cli_spec.hpp"
#include "repair/describe.hpp"
#include "repair/export.hpp"
#include "repair/journal.hpp"
#include "repair/lazy.hpp"
#include "repair/relation_setup.hpp"
#include "repair/report.hpp"
#include "repair/verify.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/progress.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace {

/// Batch mode: repair every *.lr under `dir` across the thread pool and
/// print a deterministic per-model report (sorted by file name, no timing
/// on stdout).
int run_batch_mode(const lr::support::CommandLine& cli,
                   const lr::repair::Options& options,
                   const std::string& trace_path,
                   const std::string& metrics_path) {
  namespace fs = std::filesystem;
  const std::string dir = cli.get("batch", "");
  std::vector<fs::path> models;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".lr") models.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot read directory %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (models.empty()) {
    std::fprintf(stderr, "no *.lr models under %s\n", dir.c_str());
    return 2;
  }
  std::sort(models.begin(), models.end());

  lr::repair::BatchOptions batch_options;
  batch_options.jobs = static_cast<std::size_t>(std::max<std::int64_t>(
      1, cli.get_int("jobs",
                     static_cast<std::int64_t>(
                         lr::support::ThreadPool::hardware_threads()))));
  batch_options.task_timeout_seconds =
      std::atof(cli.get("task-timeout", "0").c_str());
  batch_options.task_retries = static_cast<std::size_t>(
      std::max<std::int64_t>(0, cli.get_int("retries", 0)));
  batch_options.resume = cli.has("resume");
  // Checkpointing is opt-in (--resume or --manifest): a plain batch run
  // writes nothing next to the models.
  if (batch_options.resume || cli.has("manifest")) {
    batch_options.manifest_path = cli.get(
        "manifest", (fs::path(dir) / "batch.manifest.json").string());
  }

  // Repaired-model exports back resume validation; they live in a
  // subdirectory, which the (non-recursive) model enumeration above never
  // picks up.
  std::string export_dir;
  if (!batch_options.manifest_path.empty()) {
    export_dir = cli.get("export-dir", (fs::path(dir) / "repaired").string());
    std::error_code mk_ec;
    fs::create_directories(export_dir, mk_ec);
    if (mk_ec) {
      std::fprintf(stderr, "cannot create export dir %s: %s\n",
                   export_dir.c_str(), mk_ec.message().c_str());
      return 2;
    }
  }

  // Per-task journal files: the journal contents depend only on the task,
  // so a DIR/<name>.journal.jsonl layout is deterministic across --jobs.
  std::string journal_dir = cli.get("journal", "");
  if (!journal_dir.empty()) {
    std::error_code mk_ec;
    fs::create_directories(journal_dir, mk_ec);
    if (mk_ec) {
      std::fprintf(stderr, "cannot create journal dir %s: %s\n",
                   journal_dir.c_str(), mk_ec.message().c_str());
      return 2;
    }
  }

  const bool cautious = cli.has("cautious");
  const bool verify = !cli.has("no-verify");
  std::vector<lr::repair::BatchTask> tasks;
  tasks.reserve(models.size());
  for (const fs::path& path : models) {
    lr::repair::BatchTask task;
    task.name = path.stem().string();
    task.options = options;
    task.algorithm = cautious ? lr::repair::BatchTask::Algorithm::kCautious
                              : lr::repair::BatchTask::Algorithm::kLazy;
    task.verify = verify;
    task.make_program = [file = path.string()] {
      return lr::lang::parse_program_file(file);
    };
    // Predicted cost drives longest-first dispatch; the report stays in
    // file-name order regardless.
    task.predicted_cost = lr::lang::estimate_state_space_file(path.string());
    task.input_path = path.string();
    if (!export_dir.empty()) {
      task.export_path =
          (fs::path(export_dir) / (task.name + ".lr")).string();
    }
    if (!journal_dir.empty()) {
      task.journal_path =
          (fs::path(journal_dir) / (task.name + ".journal.jsonl")).string();
    }
    tasks.push_back(std::move(task));
  }

  const lr::repair::BatchReport report =
      lr::repair::run_batch(tasks, batch_options);

  std::printf("batch: %zu models from %s, algorithm %s\n",
              models.size(), dir.c_str(), cautious ? "cautious" : "lazy");
  for (const lr::repair::BatchItemResult& item : report.items) {
    std::printf("\nmodel: %s", item.name.c_str());
    if (item.build_ok) {
      std::printf(" (%s states)\n",
                  lr::support::format_state_count(item.model_states).c_str());
    } else {
      std::printf("\n  error: %s\n", item.failure_reason.c_str());
      continue;
    }
    if (!item.success) {
      std::printf("  result: repair failed: %s\n",
                  item.failure_reason.c_str());
      continue;
    }
    std::printf("  result: ok\n");
    std::printf("  invariant S' states: %s\n",
                lr::support::format_state_count(item.stats.invariant_states)
                    .c_str());
    std::printf("  fault-span states: %s\n",
                lr::support::format_state_count(item.stats.span_states)
                    .c_str());
    if (item.verified) {
      std::printf("  verification: %s\n", item.verify_ok ? "OK" : "FAILED");
      for (const std::string& failure : item.verify_failures) {
        std::printf("    %s\n", failure.c_str());
      }
    }
  }
  std::printf("\nbatch summary: %zu/%zu ok\n", report.ok_count(),
              report.items.size());
  if (report.failed_count() > 0) {
    // One line, task order, deterministic: scripts can grep it and a
    // resumed sweep prints the same line as an uninterrupted one.
    std::string failures;
    for (const lr::repair::BatchItemResult& item : report.items) {
      if (item.ok()) continue;
      if (!failures.empty()) failures += "; ";
      failures += item.name + " (" + item.status() + ")";
    }
    std::printf("batch failures: %s\n", failures.c_str());
  }
  // Timing is real but nondeterministic; stderr keeps stdout byte-stable
  // across --jobs values and across resume.
  std::fprintf(stderr, "batch wall time: %.3fs (jobs=%zu)\n",
               report.wall_seconds, report.jobs);
  if (batch_options.resume) {
    std::fprintf(stderr, "batch resume: %zu/%zu tasks skipped (manifest %s)\n",
                 report.skipped_count(), report.items.size(),
                 batch_options.manifest_path.c_str());
  }

  bool reports_ok = true;
  if (!trace_path.empty()) {
    lr::support::trace::stop();
    if (!lr::support::trace::write_chrome_json_file(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      reports_ok = false;
    }
  }
  if (!metrics_path.empty() &&
      !lr::repair::write_metrics_report(metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    reports_ok = false;
  }
  if (!reports_ok) return 1;
  return report.failed_count() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const lr::support::CommandLine cli(argc, argv);
  if (cli.has("help")) {
    std::fputs(lr::repair::repair_cli_usage(cli.program()).c_str(), stdout);
    return 0;
  }
  if (cli.has("help-markdown")) {
    std::fputs(lr::repair::repair_cli_flags_markdown().c_str(), stdout);
    return 0;
  }
  // Reject typos instead of silently ignoring them: every accepted flag is
  // declared in repair_cli_flag_specs().
  for (const std::string& name : cli.option_names()) {
    const auto& specs = lr::repair::repair_cli_flag_specs();
    const bool known =
        std::any_of(specs.begin(), specs.end(),
                    [&name](const lr::support::FlagSpec& spec) {
                      return spec.name == name;
                    });
    if (!known) {
      std::fprintf(stderr, "unknown option --%s (see --help)\n", name.c_str());
      return 2;
    }
  }
  if (cli.positional().empty() && !cli.has("batch") && !cli.has("chain")) {
    std::fputs(lr::repair::repair_cli_usage(cli.program()).c_str(), stdout);
    return 2;
  }

  const std::string log_level = cli.get("log-level", "");
  if (!log_level.empty()) {
    const auto parsed = lr::support::parse_log_level(log_level);
    if (!parsed) {
      std::fprintf(stderr, "unknown log level '%s'\n", log_level.c_str());
      return 2;
    }
    lr::support::set_log_level(*parsed);
  }
  const std::string trace_path = cli.get("trace-out", "");
  if (!trace_path.empty()) lr::support::trace::start();

  if (cli.has("progress")) {
    const std::string secs = cli.get("progress", "");
    lr::support::progress::configure(
        secs.empty() ? lr::support::progress::kDefaultIntervalSeconds
                     : std::atof(secs.c_str()));
  } else {
    lr::support::progress::init_from_env();
  }
  // --stats and --flamegraph grow the call-path BDD profile; collection
  // must be on before any BDD work happens.
  const std::string flame_path = cli.get("flamegraph", "");
  lr::bdd::profile::FlameWeight flame_weight =
      lr::bdd::profile::FlameWeight::kSteps;
  if (cli.has("flamegraph-weight")) {
    const std::string weight_name = cli.get("flamegraph-weight", "steps");
    const auto parsed = lr::bdd::profile::parse_flame_weight(weight_name);
    if (!parsed) {
      std::fprintf(stderr,
                   "unknown flamegraph weight '%s' (steps|seconds|nodes)\n",
                   weight_name.c_str());
      return 2;
    }
    flame_weight = *parsed;
  }
  if (cli.has("stats") || !flame_path.empty()) {
    lr::bdd::profile::set_enabled(true);
  }

  lr::repair::Options options;
  if (cli.has("no-heuristic")) options.restrict_to_reachable = false;
  const std::string level = cli.get("level", "masking");
  if (level == "failsafe") {
    options.level = lr::repair::ToleranceLevel::kFailsafe;
  } else if (level == "nonmasking") {
    options.level = lr::repair::ToleranceLevel::kNonmasking;
  } else if (level != "masking") {
    std::fprintf(stderr, "unknown tolerance level '%s'\n", level.c_str());
    return 2;
  }

  const std::string metrics_path_early = cli.get("metrics-json", "");
  if (cli.has("batch")) {
    if (cli.has("explain")) {
      std::fprintf(stderr,
                   "--explain needs a single model (use --journal=DIR with "
                   "--batch and inspect the per-model journals)\n");
      return 2;
    }
    if (!flame_path.empty()) {
      std::fprintf(stderr,
                   "--flamegraph needs a single model (batch tasks each have "
                   "their own profiler)\n");
      return 2;
    }
    return run_batch_mode(cli, options, trace_path, metrics_path_early);
  }

  std::unique_ptr<lr::prog::DistributedProgram> program;
  try {
    if (cli.has("chain")) {
      lr::cs::ChainOptions chain;
      chain.length = static_cast<std::size_t>(
          std::max<std::int64_t>(1, cli.get_int("chain", 5)));
      chain.domain = static_cast<std::uint32_t>(
          std::max<std::int64_t>(2, cli.get_int("domain", 4)));
      program = lr::cs::make_chain(chain);
    } else {
      program = lr::lang::parse_program_file(cli.positional()[0]);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n",
                 cli.has("chain") ? "--chain" : cli.positional()[0].c_str(),
                 error.what());
    return 2;
  }

  std::printf("model: %s (%.3g states)\n", program->name().c_str(),
              program->space().state_space_size());

  const double task_timeout = std::atof(cli.get("task-timeout", "0").c_str());
  if (task_timeout > 0.0) {
    options.cancel = lr::repair::CancelToken::with_timeout(task_timeout);
  }

  // Declared after `program`: journal events hold Bdd handles and must not
  // outlive the program's Space.
  lr::repair::Journal journal;
  const std::string journal_path = cli.get("journal", "");
  const bool explain = cli.has("explain");
  if (!journal_path.empty() || explain) {
    journal.meta("model", program->name());
    options.journal = &journal;
  }
  const auto write_journal = [&journal, &journal_path] {
    if (journal_path.empty()) return true;
    if (!journal.save(journal_path)) {
      std::fprintf(stderr, "cannot write %s\n", journal_path.c_str());
      return false;
    }
    return true;
  };

  lr::support::Stopwatch watch;
  lr::repair::RepairResult result;
  try {
    result = cli.has("cautious") ? lr::repair::cautious_repair(*program, options)
                                 : lr::repair::lazy_repair(*program, options);
  } catch (const lr::repair::Cancelled&) {
    std::printf("repair failed: timed out (task-timeout %.3gs)\n",
                task_timeout);
    write_journal();
    return 1;
  }

  lr::repair::record_run_metrics(result.stats);
  if (!flame_path.empty()) {
    const lr::bdd::profile::Profiler& profiler =
        program->space().manager().profiler();
    if (!lr::bdd::profile::write_collapsed_file(profiler, flame_path,
                                                flame_weight)) {
      std::fprintf(stderr, "cannot write %s\n", flame_path.c_str());
      return 1;
    }
  }
  const std::string metrics_path = cli.get("metrics-json", "");
  const auto write_reports = [&trace_path, &metrics_path] {
    bool ok = true;
    if (!trace_path.empty()) {
      lr::support::trace::stop();
      if (!lr::support::trace::write_chrome_json_file(trace_path)) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        ok = false;
      }
    }
    if (!metrics_path.empty() &&
        !lr::repair::write_metrics_report(metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      ok = false;
    }
    return ok;
  };

  if (!result.success) {
    std::printf("repair failed: %s\n", result.failure_reason.c_str());
    if (explain) {
      std::printf("\n");
      for (const std::string& line : lr::repair::describe_journal(journal)) {
        std::printf("%s\n", line.c_str());
      }
    }
    write_journal();
    write_reports();
    return 1;
  }

  lr::support::Table table({"metric", "value"});
  table.add_row({"algorithm", cli.has("cautious") ? "cautious" : "lazy"});
  table.add_row({"tolerance level", level});
  table.add_row({"total time", lr::support::format_duration(watch.seconds())});
  table.add_row({"step 1", lr::support::format_duration(result.stats.step1_seconds)});
  table.add_row({"step 2", lr::support::format_duration(result.stats.step2_seconds)});
  table.add_row({"invariant S' states",
                 lr::support::format_state_count(result.stats.invariant_states)});
  table.add_row({"fault-span states",
                 lr::support::format_state_count(result.stats.span_states)});
  table.print(std::cout);

  if (cli.has("stats")) {
    std::printf("\nengine statistics:\n");
    for (const std::string& line : lr::repair::describe_stats(result.stats)) {
      std::printf("  %s\n", line.c_str());
    }
    const lr::bdd::profile::Profiler& profiler =
        program->space().manager().profiler();
    if (!profiler.empty()) {
      std::printf("\nBDD attribution (per trace span):\n");
      lr::bdd::profile::write_attribution_table(profiler, std::cout);
      lr::bdd::profile::record_metrics(profiler);
    }
    const lr::bdd::Manager& manager = program->space().manager();
    const lr::bdd::meminfo::MemInfo mem = lr::bdd::meminfo::collect(manager);
    std::printf("\n");
    lr::bdd::meminfo::write_report(mem, std::cout);
    lr::bdd::meminfo::record_metrics(mem);
    lr::bdd::meminfo::write_gc_report(manager, std::cout);
    std::printf("\n");
    lr::repair::write_relation_report(*program, std::cout);
  }

  if (explain) {
    std::printf("\n");
    for (const std::string& line : lr::repair::describe_journal(journal)) {
      std::printf("%s\n", line.c_str());
    }
  }
  if (!write_journal()) {
    write_reports();
    return 1;
  }

  if (cli.has("print-program")) {
    for (std::size_t j = 0; j < program->process_count(); ++j) {
      std::printf("\nprocess %s:\n", program->process(j).name.c_str());
      for (const std::string& line : lr::repair::describe_process_program(
               *program, j, result.process_deltas[j], result.fault_span)) {
        std::printf("  %s\n", line.c_str());
      }
    }
  }

  const std::string export_path = cli.get("export", "");
  if (!export_path.empty()) {
    if (!lr::repair::export_model_file(*program, result, export_path)) {
      std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
      write_reports();
      return 1;
    }
    std::printf("\nsynthesized model written to %s\n", export_path.c_str());
  }

  bool verify_ok = true;
  if (!cli.has("no-verify")) {
    const lr::repair::VerifyReport report =
        lr::repair::verify_masking(*program, result, options.level);
    std::printf("\nverification: %s\n", report.ok ? "OK" : "FAILED");
    for (const std::string& failure : report.failures) {
      std::printf("  %s\n", failure.c_str());
    }
    verify_ok = report.ok;
  }
  if (!write_reports()) return 1;
  return verify_ok ? 0 : 1;
}
