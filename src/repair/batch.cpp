#include "repair/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>

#include "explicit_model/explicit_model.hpp"
#include "lang/parser.hpp"
#include "repair/cautious.hpp"
#include "repair/export.hpp"
#include "repair/journal.hpp"
#include "repair/lazy.hpp"
#include "repair/manifest.hpp"
#include "repair/report.hpp"
#include "support/fs.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/progress.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace lr::repair {

namespace {

std::string default_label(const BatchTask& task) {
  return task.algorithm == BatchTask::Algorithm::kCautious ? "cautious"
                                                           : "lazy";
}

std::string task_fingerprint(const BatchTask& task) {
  return options_fingerprint(
      task.options, task.algorithm == BatchTask::Algorithm::kCautious,
      task.verify);
}

/// Resume validation: the manifest row is only trusted after the exported
/// repaired model is re-parsed and passes the independent standalone
/// verifier. A corrupted, truncated or hand-edited export fails a check and
/// the task simply re-runs. Runs on the worker thread (it builds its own
/// program and BDD manager), so validation parallelizes like repair does.
bool export_still_valid(const BatchTask& task, const ManifestEntry& entry) {
  if (entry.export_path.empty()) return false;
  try {
    const std::unique_ptr<prog::DistributedProgram> exported =
        lang::parse_program_file(entry.export_path);
    return verify_tolerant_model(*exported, task.options.level).ok;
  } catch (...) {
    return false;
  }
}

/// Reprints a validated manifest row as a result without running anything.
/// Every field the batch report renders on stdout comes from the manifest,
/// which is why a resumed sweep's stdout is byte-identical to an
/// uninterrupted one.
BatchItemResult skipped_item(const ManifestEntry& entry) {
  BatchItemResult item;
  item.name = entry.name;
  item.algorithm = entry.algorithm;
  item.build_ok = true;
  item.success = true;
  item.model_states = entry.model_states;
  item.stats.invariant_states = entry.invariant_states;
  item.stats.span_states = entry.span_states;
  item.seconds = entry.seconds;
  item.verified = entry.verified;
  item.verify_ok = entry.verify_ok;
  item.attempts = entry.attempts;
  item.skipped = true;
  item.export_path = entry.export_path;
  return item;
}

/// Runs one task start-to-finish on the current thread, retrying attempts
/// that time out or throw. noexcept by construction: every failure path
/// lands in the item, never in the pool.
BatchItemResult run_task(const BatchTask& task, const BatchOptions& batch) {
  BatchItemResult item;
  item.name = task.name;
  item.algorithm =
      task.algorithm_label.empty() ? default_label(task) : task.algorithm_label;
  support::Stopwatch watch;
  LR_TRACE_SPAN_NAMED(span, "batch.task");
  span.attr("name", std::string_view(task.name));
  const std::size_t max_attempts = 1 + batch.task_retries;
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    item.attempts = attempt;
    item.build_ok = false;
    item.success = false;
    item.timed_out = false;
    item.failure_reason.clear();
    item.verified = false;
    item.verify_ok = false;
    item.verify_failures.clear();
    try {
      std::unique_ptr<prog::DistributedProgram> program = task.make_program();
      item.build_ok = true;
      item.model_states = program->space().state_space_size();
      Options options = task.options;
      if (batch.task_timeout_seconds > 0.0) {
        options.cancel = CancelToken::with_timeout(batch.task_timeout_seconds);
      }
      // Declared after `program`: journal events hold Bdd handles and must
      // not outlive the task's Space.
      Journal journal;
      if (!task.journal_path.empty()) {
        journal.meta("model", task.name);
        options.journal = &journal;
      }
      const RepairResult result =
          task.algorithm == BatchTask::Algorithm::kCautious
              ? cautious_repair(*program, options)
              : lazy_repair(*program, options);
      item.success = result.success;
      item.failure_reason = result.failure_reason;
      item.stats = result.stats;
      if (!task.journal_path.empty() && !journal.save(task.journal_path)) {
        LR_LOG(warn) << "[batch] " << task.name << ": cannot write journal "
                     << task.journal_path;
      }
      if (result.success && task.verify) {
        item.verified = true;
        const VerifyReport report =
            verify_masking(*program, result, options.level);
        item.verify_ok = report.ok;
        item.verify_failures = report.failures;
      }
      if (result.success && !task.export_path.empty()) {
        if (export_model_file(*program, result, task.export_path)) {
          item.export_path = task.export_path;
        } else {
          LR_LOG(warn) << "[batch] " << task.name
                       << ": cannot write export " << task.export_path;
        }
      }
      break;  // honest outcome (success or repair failure): never retried
    } catch (const Cancelled&) {
      item.timed_out = true;
      item.failure_reason =
          "timed out (task-timeout " +
          std::to_string(batch.task_timeout_seconds) + "s, attempt " +
          std::to_string(attempt) + "/" + std::to_string(max_attempts) + ")";
    } catch (const std::exception& error) {
      item.failure_reason = error.what();
    } catch (...) {
      item.failure_reason = "unknown exception";
    }
  }
  item.seconds = watch.seconds();
  span.attr("ok", std::uint64_t{item.ok() ? 1u : 0u});
  span.attr("attempts", static_cast<std::uint64_t>(item.attempts));
  return item;
}

ManifestEntry manifest_entry_of(const BatchTask& task,
                                const BatchItemResult& item,
                                const std::string& input_hash) {
  ManifestEntry entry;
  entry.name = item.name;
  entry.input_hash = input_hash;
  entry.options_fingerprint = task_fingerprint(task);
  entry.status = item.status();
  entry.algorithm = item.algorithm;
  entry.export_path = item.export_path;
  entry.failure_reason = item.failure_reason;
  entry.attempts = item.attempts;
  entry.seconds = item.seconds;
  entry.model_states = item.model_states;
  entry.invariant_states = item.stats.invariant_states;
  entry.span_states = item.stats.span_states;
  entry.verified = item.verified;
  entry.verify_ok = item.verify_ok;
  return entry;
}

}  // namespace

std::size_t BatchReport::ok_count() const noexcept {
  std::size_t n = 0;
  for (const BatchItemResult& item : items) {
    if (item.ok()) ++n;
  }
  return n;
}

std::size_t BatchReport::failed_count() const noexcept {
  return items.size() - ok_count();
}

std::size_t BatchReport::skipped_count() const noexcept {
  std::size_t n = 0;
  for (const BatchItemResult& item : items) {
    if (item.skipped) ++n;
  }
  return n;
}

BatchReport run_batch(const std::vector<BatchTask>& tasks,
                      const BatchOptions& options) {
  BatchReport report;
  report.jobs = options.jobs == 0 ? 1 : options.jobs;
  report.items.resize(tasks.size());

  const bool checkpointing = !options.manifest_path.empty();
  Manifest manifest;
  if (options.resume && checkpointing) {
    // Missing/corrupt/foreign-schema manifests mean "cold start".
    if (std::optional<Manifest> loaded = Manifest::load(options.manifest_path)) {
      manifest = std::move(*loaded);
    }
  }
  std::mutex manifest_mutex;

  // Dispatch order: predicted-most-expensive first, so a giant instance
  // cannot be scheduled last and stretch the batch tail (classic LPT
  // scheduling). stable_sort keeps unknown-cost tasks in task order.
  // Results still land at their original indices, so the report — and
  // therefore stdout — is identical under any dispatch permutation.
  std::vector<std::size_t> dispatch(tasks.size());
  std::iota(dispatch.begin(), dispatch.end(), std::size_t{0});
  std::stable_sort(dispatch.begin(), dispatch.end(),
                   [&tasks](std::size_t a, std::size_t b) {
                     return tasks[a].predicted_cost > tasks[b].predicted_cost;
                   });

  support::Stopwatch watch;
  {
    LR_TRACE_SPAN_NAMED(span, "batch.run");
    span.attr("tasks", static_cast<std::uint64_t>(tasks.size()));
    span.attr("jobs", static_cast<std::uint64_t>(report.jobs));
    std::atomic<std::size_t> tasks_done{0};
    std::atomic<std::size_t> tasks_skipped{0};
    support::progress::Heartbeat heartbeat("batch");
    support::parallel_for(tasks.size(), report.jobs, [&](std::size_t k) {
      const std::size_t i = dispatch[k];
      const BatchTask& task = tasks[i];

      std::string input_hash;
      if (checkpointing && !task.input_path.empty()) {
        input_hash = support::hash_file(task.input_path).value_or("");
      }

      // Resume: skip the task when its row checks out. The cheap tests
      // (status, hash, fingerprint) gate the expensive one (re-parsing and
      // re-verifying the export).
      bool skipped = false;
      if (options.resume) {
        const ManifestEntry* entry = nullptr;
        {
          const std::lock_guard<std::mutex> lock(manifest_mutex);
          entry = manifest.find(task.name);
        }
        if (entry != nullptr && entry->status == "ok" &&
            !input_hash.empty() && entry->input_hash == input_hash &&
            entry->options_fingerprint == task_fingerprint(task) &&
            export_still_valid(task, *entry)) {
          report.items[i] = skipped_item(*entry);
          skipped = true;
          const std::size_t n_skipped =
              tasks_skipped.fetch_add(1, std::memory_order_relaxed) + 1;
          support::trace::counter("batch.tasks_skipped",
                                  static_cast<double>(n_skipped));
          if (support::progress::enabled()) {
            heartbeat.emit(task.name + " skipped (validated manifest row)");
          }
        }
      }

      if (!skipped) {
        report.items[i] = run_task(task, options);
        if (checkpointing) {
          const ManifestEntry entry =
              manifest_entry_of(task, report.items[i], input_hash);
          const std::lock_guard<std::mutex> lock(manifest_mutex);
          manifest.set(entry);
          if (!manifest.save(options.manifest_path)) {
            LR_LOG(warn) << "[batch] cannot write manifest "
                         << options.manifest_path;
          }
        }
      }

      const std::size_t done =
          tasks_done.fetch_add(1, std::memory_order_relaxed) + 1;
      support::trace::counter("batch.tasks_done",
                              static_cast<double>(done));
      if (heartbeat.due()) {
        heartbeat.emit(std::to_string(done) + "/" +
                       std::to_string(tasks.size()) + " tasks done");
      }
    });
  }
  report.wall_seconds = watch.seconds();

  if (options.record_metrics) {
    // Task order, calling thread: the merged report is reproducible no
    // matter how the pool interleaved the work.
    support::metrics::Registry& m = support::metrics::registry();
    const std::string prefix =
        options.metrics_prefix.empty() ? "batch" : options.metrics_prefix;
    for (std::size_t i = 0; i < report.items.size(); ++i) {
      const BatchItemResult& item = report.items[i];
      // Keyed on (name, algorithm): one instance may run under both.
      const std::string key = prefix + "." + item.name + "." + item.algorithm;
      if (tasks[i].predicted_cost >= 0.0) {
        m.set_gauge(key + ".predicted_states", tasks[i].predicted_cost);
      }
      // Checkpoint lifecycle: 1 = ok, 0 = failed, 2 = timed out.
      m.set_gauge(key + ".status",
                  item.timed_out ? 2.0 : (item.ok() ? 1.0 : 0.0));
      m.set_gauge(key + ".attempts", static_cast<double>(item.attempts));
      m.set_gauge(key + ".resumed", item.skipped ? 1.0 : 0.0);
      if (!item.build_ok || item.skipped) continue;
      m.max_gauge(key + ".peak_nodes",
                  static_cast<double>(item.stats.bdd.peak_nodes));
      record_run_metrics(item.stats);
      record_run_metrics(item.stats, key);
      m.set_gauge(key + ".seconds", item.seconds);
    }
    m.add(prefix + ".tasks", tasks.size());
    m.add(prefix + ".ok", report.ok_count());
    m.add(prefix + ".failed", report.failed_count());
    m.add(prefix + ".skipped", report.skipped_count());
    m.set_gauge(prefix + ".wall_seconds", report.wall_seconds);
    m.set_gauge(prefix + ".jobs", static_cast<double>(report.jobs));
  }

  LR_LOG(info) << "[batch] " << report.ok_count() << "/" << tasks.size()
               << " ok (" << report.skipped_count() << " resumed) in "
               << report.wall_seconds << "s (jobs=" << report.jobs << ")";
  return report;
}

}  // namespace lr::repair
