#pragma once

// The Table I–III sweep configurations, shared between the
// google-benchmark binaries (serial, per-configuration measurement) and
// the batch driver (`--batch-jobs=N`: the whole sweep as one
// repair::run_batch call). Keeping one spec list guarantees the two paths
// repair identical instances.
//
// Each row still names a group method, which repair ignores (see
// repair::GroupMethod): the lr_bench harness keys its rows on (name,
// algorithm, method). Rows that differ only in that label repeat one
// repair, and the sweeps run it once (distinct_repairs).

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "repair/batch.hpp"

namespace lr::bench {

using repair::BatchTask;
using repair::GroupMethod;

inline BatchTask byzantine_task(std::size_t n, bool fail_stop,
                                BatchTask::Algorithm algorithm,
                                GroupMethod method) {
  BatchTask task;
  task.name = (fail_stop ? "BAFS^" : "BA^") + std::to_string(n);
  task.algorithm = algorithm;
  task.options.group_method = method;
  task.make_program = [n, fail_stop] {
    return cs::make_byzantine({.non_generals = n, .fail_stop = fail_stop});
  };
  // The tables measure synthesis cost; soundness is covered by the test
  // suite, and verification would double the timed work.
  task.verify = false;
  return task;
}

inline BatchTask chain_task(std::size_t length, GroupMethod method) {
  BatchTask task;
  task.name = "Sc^" + std::to_string(length);
  task.algorithm = BatchTask::Algorithm::kLazy;
  task.options.group_method = method;
  task.make_program = [length] {
    return cs::make_chain({.length = length, .domain = 8});
  };
  task.verify = false;
  return task;
}

/// `tasks` without the rows that repeat an earlier (name, algorithm).
inline std::vector<BatchTask> distinct_repairs(std::vector<BatchTask> tasks) {
  std::vector<BatchTask> out;
  for (BatchTask& task : tasks) {
    const bool seen = std::any_of(
        out.begin(), out.end(), [&task](const BatchTask& kept) {
          return kept.name == task.name && kept.algorithm == task.algorithm;
        });
    if (!seen) out.push_back(std::move(task));
  }
  return out;
}

/// Table I — Byzantine agreement, cautious vs. lazy. Mirrors the
/// BENCHMARK registrations in bench_table1_byzantine.cpp.
inline std::vector<BatchTask> table1_tasks() {
  std::vector<BatchTask> tasks;
  for (std::size_t n = 3; n <= 7; ++n) {
    tasks.push_back(byzantine_task(n, false, BatchTask::Algorithm::kLazy,
                                   GroupMethod::kPaperLoop));
  }
  for (std::size_t n = 3; n <= 6; ++n) {
    tasks.push_back(byzantine_task(n, false, BatchTask::Algorithm::kCautious,
                                   GroupMethod::kPaperLoop));
  }
  for (const std::size_t n : {6, 9, 12, 15}) {
    tasks.push_back(byzantine_task(n, false, BatchTask::Algorithm::kLazy,
                                   GroupMethod::kOneShot));
    tasks.push_back(byzantine_task(n, false, BatchTask::Algorithm::kCautious,
                                   GroupMethod::kOneShot));
  }
  return tasks;
}

/// Table II-a — Byzantine agreement with fail-stop faults (BAFS^n).
inline std::vector<BatchTask> table2_tasks() {
  std::vector<BatchTask> tasks;
  for (std::size_t n = 3; n <= 5; ++n) {
    tasks.push_back(byzantine_task(n, true, BatchTask::Algorithm::kLazy,
                                   GroupMethod::kPaperLoop));
  }
  for (const std::size_t n : {4, 6, 8, 10, 12}) {
    tasks.push_back(byzantine_task(n, true, BatchTask::Algorithm::kLazy,
                                   GroupMethod::kOneShot));
  }
  for (const std::size_t n : {4, 6}) {
    tasks.push_back(byzantine_task(n, true, BatchTask::Algorithm::kCautious,
                                   GroupMethod::kOneShot));
  }
  return tasks;
}

/// Table II-b — stabilizing chain Sc^n (domain 8).
inline std::vector<BatchTask> table3_tasks() {
  std::vector<BatchTask> tasks;
  for (const std::size_t length : {10, 15, 20, 25, 30, 35}) {
    tasks.push_back(chain_task(length, GroupMethod::kPaperLoop));
  }
  for (const std::size_t length : {10, 20, 30}) {
    tasks.push_back(chain_task(length, GroupMethod::kOneShot));
  }
  return tasks;
}

}  // namespace lr::bench
