#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "program/distributed_program.hpp"
#include "repair/types.hpp"
#include "repair/verify.hpp"

namespace lr::repair {

/// One independent repair problem for the batch executor. The program is
/// *built inside the worker task* (hence the factory, not a program):
/// every task therefore owns its own `sym::Space` and BDD manager, which
/// preserves the engine's one-manager-per-thread contract with zero
/// sharing between concurrent repairs.
struct BatchTask {
  enum class Algorithm { kLazy, kCautious };

  /// Stable identifier: model file stem or benchmark instance ("BA^5").
  std::string name;
  /// Builds the fault-intolerant program. Called once, on a worker thread.
  /// May throw (e.g. parse errors); the error is captured per-task.
  std::function<std::unique_ptr<prog::DistributedProgram>()> make_program;
  Options options;
  Algorithm algorithm = Algorithm::kLazy;
  /// Display label for the algorithm column; derived from `algorithm`
  /// when empty.
  std::string algorithm_label;
  /// Run the independent verifier on successful repairs.
  bool verify = true;
  /// Predicted cost (state-space size from lang::estimate_state_space, or
  /// any monotone proxy). Tasks are *dispatched* most-expensive-first so a
  /// giant instance cannot start last and stretch the batch tail; result
  /// order stays task order. Negative means unknown (dispatched last, in
  /// task order). Recorded as `batch.<name>.predicted_states`.
  double predicted_cost = -1.0;
  /// Source model file backing make_program. Hashed into the checkpoint
  /// manifest so --resume can detect edited inputs; empty disables resume
  /// for this task (it always re-runs).
  std::string input_path;
  /// Where to write the repaired model on success (atomically). Required
  /// for the task to be skippable on resume: the validator re-parses and
  /// re-verifies this file instead of trusting the manifest. Empty
  /// disables the export.
  std::string export_path;
  /// Where to write the repair decision journal (JSONL, see
  /// repair/journal.hpp). Each task gets its own file, and the journal
  /// contents depend only on the task — never on scheduling — so the files
  /// are byte-identical across --jobs counts. Empty disables journaling.
  std::string journal_path;
  /// Where to write the persisted order profile (`--order-out` in batch
  /// mode: one file per task). Written after a successful repair, *before*
  /// the export restores the creation order. Empty disables it.
  std::string order_out_path;
};

/// Outcome of one task. Everything needed for reporting is copied out of
/// the worker; the program and its BDD manager die with the task.
struct BatchItemResult {
  std::string name;
  std::string algorithm;  ///< display label
  /// make_program() and the repair ran without throwing. When false,
  /// `failure_reason` holds the exception text and nothing else is valid.
  bool build_ok = false;
  bool success = false;             ///< repair succeeded
  std::string failure_reason;       ///< build error or repair failure
  double model_states = -1.0;       ///< |state space| of the input model
  Stats stats;
  double seconds = 0.0;             ///< wall clock: build + repair + verify
  bool verified = false;            ///< the verifier ran
  bool verify_ok = false;
  std::vector<std::string> verify_failures;
  /// How many times the task ran (1 + retries used; 0 when skipped on
  /// resume with the manifest's recorded count unavailable).
  std::size_t attempts = 0;
  /// The final attempt hit the --task-timeout deadline (repair::Cancelled).
  bool timed_out = false;
  /// The task did not run: its manifest row and exported repaired model
  /// validated on resume, and the fields above were reprinted from the
  /// manifest. `seconds` is the *recorded* wall time of the original run.
  bool skipped = false;
  /// Where the repaired model was exported ("" when no export happened).
  std::string export_path;

  /// Repair succeeded and verification (if run) passed.
  [[nodiscard]] bool ok() const noexcept {
    return build_ok && success && (!verified || verify_ok);
  }

  /// Manifest status string: "ok", "timeout" or "failed".
  [[nodiscard]] const char* status() const noexcept {
    if (timed_out) return "timeout";
    return ok() ? "ok" : "failed";
  }
};

struct BatchOptions {
  /// Worker threads; <= 1 runs every task inline on the calling thread in
  /// task order (the sequential reference for determinism tests).
  std::size_t jobs = 1;
  /// Mirror per-task and aggregate stats into the process-wide metrics
  /// registry after the batch completes. Recording happens on the calling
  /// thread in task order, so the merged report's key set is independent
  /// of scheduling.
  bool record_metrics = true;
  /// Dotted prefix for per-task metric keys:
  /// "<prefix>.<name>.<algorithm>.repair.*".
  std::string metrics_prefix = "batch";
  /// Cooperative per-task deadline in seconds (<= 0: none). Checked at
  /// fixpoint-round granularity inside the repair algorithms via
  /// Options::cancel; a single image/preimage is never interrupted, so the
  /// observed overrun is one BDD operation, not one task.
  double task_timeout_seconds = 0.0;
  /// Extra attempts for tasks that time out or throw (honest repair
  /// failures — result.success == false — are deterministic and are never
  /// retried). Total attempts = 1 + task_retries.
  std::size_t task_retries = 0;
  /// Checkpoint manifest path; empty disables checkpointing. When set, the
  /// manifest is rewritten atomically after every completed task, so a
  /// killed sweep can resume from its last finished task.
  std::string manifest_path;
  /// Skip tasks whose manifest row is status "ok", whose input hash and
  /// options fingerprint still match, and whose exported repaired model
  /// parses and passes verify_tolerant_model. Anything stale, missing or
  /// failed re-runs. A missing/corrupt manifest is a cold start, not an
  /// error.
  bool resume = false;
};

struct BatchReport {
  /// One entry per task, in task order — never in completion order.
  std::vector<BatchItemResult> items;
  double wall_seconds = 0.0;
  std::size_t jobs = 1;

  [[nodiscard]] std::size_t ok_count() const noexcept;
  [[nodiscard]] std::size_t failed_count() const noexcept;
  /// Tasks skipped on resume (their manifest row validated).
  [[nodiscard]] std::size_t skipped_count() const noexcept;
};

/// Runs every task, `options.jobs` at a time, on a fixed-size thread pool.
/// Per-task results are deterministic for a deterministic task list: each
/// worker is a pure function of its task (own program, own manager, no
/// shared engine state), so `jobs = 8` produces byte-identical per-task
/// results to `jobs = 1`, in the same order — only wall-clock and the
/// interleaving of trace lanes differ.
[[nodiscard]] BatchReport run_batch(const std::vector<BatchTask>& tasks,
                                    const BatchOptions& options = {});

}  // namespace lr::repair
