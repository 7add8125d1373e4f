// Tests for the batch repair executor: determinism across job counts,
// task-order results, per-task error capture, metrics recording, timeouts
// with bounded retries, and checkpoint/resume.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "explicit_model/explicit_model.hpp"
#include "lang/parser.hpp"
#include "repair/batch.hpp"
#include "repair/export.hpp"
#include "repair/lazy.hpp"
#include "repair/manifest.hpp"
#include "support/fs.hpp"
#include "support/metrics.hpp"

namespace lr::repair {
namespace {

std::vector<BatchTask> mixed_tasks() {
  std::vector<BatchTask> tasks;
  {
    BatchTask task;
    task.name = "tmr";
    task.make_program = [] { return cs::make_tmr({}); };
    tasks.push_back(std::move(task));
  }
  {
    BatchTask task;
    task.name = "chain4";
    task.make_program = [] {
      return cs::make_chain({.length = 4, .domain = 3});
    };
    tasks.push_back(std::move(task));
  }
  {
    BatchTask task;
    task.name = "ring4";
    task.make_program = [] {
      return cs::make_token_ring({.processes = 4, .domain = 4});
    };
    tasks.push_back(std::move(task));
  }
  {
    BatchTask task;
    task.name = "tmr-cautious";
    task.algorithm = BatchTask::Algorithm::kCautious;
    task.make_program = [] { return cs::make_tmr({}); };
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TEST(BatchTest, RepairsEveryTaskAndKeepsTaskOrder) {
  const auto tasks = mixed_tasks();
  BatchOptions options;
  options.jobs = 4;
  options.record_metrics = false;
  const BatchReport report = run_batch(tasks, options);
  ASSERT_EQ(report.items.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(report.items[i].name, tasks[i].name) << "order broken at " << i;
    EXPECT_TRUE(report.items[i].ok()) << tasks[i].name << ": "
                                      << report.items[i].failure_reason;
    EXPECT_TRUE(report.items[i].verified);
  }
  EXPECT_EQ(report.ok_count(), tasks.size());
  EXPECT_EQ(report.failed_count(), 0u);
}

TEST(BatchTest, ParallelResultsMatchSequentialExactly) {
  const auto tasks = mixed_tasks();
  BatchOptions sequential;
  sequential.jobs = 1;
  sequential.record_metrics = false;
  BatchOptions parallel = sequential;
  parallel.jobs = 8;
  const BatchReport a = run_batch(tasks, sequential);
  const BatchReport b = run_batch(tasks, parallel);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    const BatchItemResult& x = a.items[i];
    const BatchItemResult& y = b.items[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.success, y.success) << x.name;
    EXPECT_EQ(x.verify_ok, y.verify_ok) << x.name;
    EXPECT_EQ(x.model_states, y.model_states) << x.name;
    // The synthesized artifacts are deterministic; only time may differ.
    EXPECT_EQ(x.stats.invariant_states, y.stats.invariant_states) << x.name;
    EXPECT_EQ(x.stats.span_states, y.stats.span_states) << x.name;
    EXPECT_EQ(x.stats.outer_iterations, y.stats.outer_iterations) << x.name;
    EXPECT_EQ(x.stats.bdd.created_nodes, y.stats.bdd.created_nodes) << x.name;
  }
}

TEST(BatchTest, BuildErrorsAreCapturedPerTask) {
  std::vector<BatchTask> tasks;
  {
    BatchTask task;
    task.name = "broken";
    task.make_program = []() -> std::unique_ptr<prog::DistributedProgram> {
      throw std::runtime_error("synthetic build failure");
    };
    tasks.push_back(std::move(task));
  }
  {
    BatchTask task;
    task.name = "tmr";
    task.make_program = [] { return cs::make_tmr({}); };
    tasks.push_back(std::move(task));
  }
  BatchOptions options;
  options.jobs = 2;
  options.record_metrics = false;
  const BatchReport report = run_batch(tasks, options);
  ASSERT_EQ(report.items.size(), 2u);
  EXPECT_FALSE(report.items[0].build_ok);
  EXPECT_FALSE(report.items[0].ok());
  EXPECT_EQ(report.items[0].failure_reason, "synthetic build failure");
  EXPECT_TRUE(report.items[1].ok()) << "an error in one task must not "
                                       "poison its neighbors";
  EXPECT_EQ(report.ok_count(), 1u);
  EXPECT_EQ(report.failed_count(), 1u);
}

TEST(BatchTest, RecordsAggregateAndPerTaskMetrics) {
  support::metrics::registry().clear();
  std::vector<BatchTask> tasks;
  {
    BatchTask task;
    task.name = "tmr";
    task.make_program = [] { return cs::make_tmr({}); };
    tasks.push_back(std::move(task));
  }
  BatchOptions options;
  options.jobs = 2;
  options.metrics_prefix = "testbatch";
  const BatchReport report = run_batch(tasks, options);
  ASSERT_TRUE(report.items[0].ok());
  const auto& m = support::metrics::registry();
  EXPECT_EQ(m.counter("testbatch.tasks"), 1u);
  EXPECT_EQ(m.counter("testbatch.ok"), 1u);
  EXPECT_EQ(m.counter("testbatch.failed"), 0u);
  EXPECT_TRUE(m.has_gauge("testbatch.wall_seconds"));
  EXPECT_TRUE(m.has_gauge("testbatch.tmr.lazy.repair.invariant_states"));
  // The un-prefixed aggregate keys accumulate across the whole batch.
  EXPECT_TRUE(m.has_gauge("repair.invariant_states"));
  support::metrics::registry().clear();
}

TEST(BatchTest, PreCancelledTokenAbortsRepairWithCancelled) {
  auto program = cs::make_tmr({});
  Options options;
  options.cancel = std::make_shared<CancelToken>();
  options.cancel->cancel();
  EXPECT_THROW((void)lazy_repair(*program, options), Cancelled);
}

TEST(BatchTest, TimedOutTaskIsRetriedBoundedlyAndMarkedTimeout) {
  std::vector<BatchTask> tasks;
  BatchTask task;
  task.name = "doomed";
  // A pre-cancelled token makes every attempt hit the cooperative
  // cancellation check on its first fixpoint round — a deterministic
  // stand-in for an expired --task-timeout deadline.
  task.options.cancel = std::make_shared<CancelToken>();
  task.options.cancel->cancel();
  task.make_program = [] { return cs::make_tmr({}); };
  tasks.push_back(std::move(task));

  BatchOptions options;
  options.jobs = 1;
  options.record_metrics = false;
  options.task_retries = 2;
  const BatchReport report = run_batch(tasks, options);
  ASSERT_EQ(report.items.size(), 1u);
  const BatchItemResult& item = report.items[0];
  EXPECT_FALSE(item.ok());
  EXPECT_TRUE(item.timed_out);
  EXPECT_EQ(item.attempts, 3u) << "1 initial + 2 retries";
  EXPECT_STREQ(item.status(), "timeout");
  EXPECT_EQ(report.failed_count(), 1u);
}

TEST(BatchTest, ThrowingBuildIsRetriedButHonestResultIsNot) {
  std::vector<BatchTask> tasks;
  {
    BatchTask task;
    task.name = "thrower";
    task.make_program = []() -> std::unique_ptr<prog::DistributedProgram> {
      throw std::runtime_error("synthetic crash");
    };
    tasks.push_back(std::move(task));
  }
  {
    BatchTask task;
    task.name = "tmr";
    task.make_program = [] { return cs::make_tmr({}); };
    tasks.push_back(std::move(task));
  }
  BatchOptions options;
  options.jobs = 1;
  options.record_metrics = false;
  options.task_retries = 3;
  const BatchReport report = run_batch(tasks, options);
  EXPECT_EQ(report.items[0].attempts, 4u);
  EXPECT_FALSE(report.items[0].ok());
  EXPECT_STREQ(report.items[0].status(), "failed");
  EXPECT_EQ(report.items[1].attempts, 1u)
      << "a successful repair must not burn retry attempts";
  EXPECT_TRUE(report.items[1].ok());
}

/// Fixture for engine-level checkpoint/resume: a real model file, a real
/// manifest and a real export, in a scratch directory.
class BatchResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs each test as its own process of this
    // binary, so a shared directory name races between concurrent tests.
    dir_ = ::testing::TempDir() + std::string("batch_resume_engine_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    model_path_ = dir_ + "/counter.lr";
    write_model("");
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void write_model(const std::string& suffix) {
    ASSERT_TRUE(support::write_file_atomic(
        model_path_,
        "program counter;\n"
        "var x : 0..2;\n"
        "process worker {\n"
        "  reads x;\n  writes x;\n"
        "  action reset: x == 1 -> x := 0;\n"
        "}\n"
        "fault glitch: x == 0 -> x := 1;\n"
        "invariant x == 0;\n"
        "bad_state x == 2;\n" +
            suffix));
  }

  std::vector<BatchTask> tasks() const {
    std::vector<BatchTask> list;
    BatchTask task;
    task.name = "counter";
    task.input_path = model_path_;
    task.export_path = dir_ + "/counter.repaired.lr";
    task.make_program = [file = model_path_] {
      return lang::parse_program_file(file);
    };
    list.push_back(std::move(task));
    return list;
  }

  BatchOptions batch_options(bool resume) const {
    BatchOptions options;
    options.jobs = 1;
    options.record_metrics = false;
    options.manifest_path = dir_ + "/batch.manifest.json";
    options.resume = resume;
    return options;
  }

  std::string dir_;
  std::string model_path_;
};

TEST_F(BatchResumeTest, SkipsValidatedTaskAndReprintsRecordedResult) {
  const BatchReport cold = run_batch(tasks(), batch_options(true));
  ASSERT_EQ(cold.skipped_count(), 0u) << "no manifest yet: cold start";
  ASSERT_TRUE(cold.items[0].ok());
  ASSERT_EQ(cold.items[0].export_path, dir_ + "/counter.repaired.lr");
  ASSERT_TRUE(std::filesystem::exists(cold.items[0].export_path));

  const std::optional<Manifest> manifest =
      Manifest::load(dir_ + "/batch.manifest.json");
  ASSERT_TRUE(manifest.has_value());
  const ManifestEntry* entry = manifest->find("counter");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->status, "ok");
  EXPECT_EQ(entry->input_hash, *support::hash_file(model_path_));

  const BatchReport warm = run_batch(tasks(), batch_options(true));
  EXPECT_EQ(warm.skipped_count(), 1u);
  const BatchItemResult& item = warm.items[0];
  EXPECT_TRUE(item.skipped);
  EXPECT_TRUE(item.ok());
  // Everything the report prints is reprinted from the manifest.
  EXPECT_EQ(item.model_states, cold.items[0].model_states);
  EXPECT_EQ(item.stats.invariant_states, cold.items[0].stats.invariant_states);
  EXPECT_EQ(item.stats.span_states, cold.items[0].stats.span_states);
  EXPECT_EQ(item.verified, cold.items[0].verified);
  EXPECT_EQ(item.verify_ok, cold.items[0].verify_ok);
  EXPECT_EQ(item.algorithm, cold.items[0].algorithm);
}

TEST_F(BatchResumeTest, EditedInputInvalidatesTheManifestRow) {
  (void)run_batch(tasks(), batch_options(true));
  write_model("// semantically neutral edit\n");
  const BatchReport warm = run_batch(tasks(), batch_options(true));
  EXPECT_EQ(warm.skipped_count(), 0u)
      << "a changed input hash must force a re-run";
  EXPECT_TRUE(warm.items[0].ok());
}

TEST_F(BatchResumeTest, CorruptedExportInvalidatesTheManifestRow) {
  const BatchReport cold = run_batch(tasks(), batch_options(true));
  ASSERT_TRUE(cold.items[0].ok());
  // Truncate the export: it still exists but no longer parses.
  ASSERT_TRUE(
      support::write_file_atomic(dir_ + "/counter.repaired.lr", "progr"));
  const BatchReport warm = run_batch(tasks(), batch_options(true));
  EXPECT_EQ(warm.skipped_count(), 0u)
      << "resume must re-verify the export, not trust the manifest";
  EXPECT_TRUE(warm.items[0].ok());
  EXPECT_FALSE(warm.items[0].skipped);
}

TEST_F(BatchResumeTest, ChangedOptionsFingerprintInvalidatesTheManifestRow) {
  (void)run_batch(tasks(), batch_options(true));
  std::vector<BatchTask> changed = tasks();
  changed[0].options.max_outer_iterations = 63;
  const BatchReport warm = run_batch(changed, batch_options(true));
  EXPECT_EQ(warm.skipped_count(), 0u);
}

TEST(BatchVerifyTest, VerifyTolerantModelAcceptsExportAndRejectsOriginal) {
  // At every tolerance level, each input's repair, exported and parsed
  // back, is self-verifiably tolerant (with one known exception, below). TMR and BA^3 as written are not
  // tolerant at any level, and must be rejected. The other three already
  // are: the chain and the token ring stabilize and have no safety
  // specification, and quickstart's fault cannot reach its bad state. Their
  // acceptance is cross-checked by the explicit-state checker.
  using Factory = std::function<std::unique_ptr<prog::DistributedProgram>()>;
  const auto model_file = [](const char* name) -> Factory {
    return [name] {
      return lang::parse_program_file(std::string(LR_SOURCE_DIR) +
                                      "/models/" + name + ".lr");
    };
  };
  struct Input {
    std::string name;
    Factory make;
    bool tolerant_as_written;
  };
  const std::vector<Input> inputs = {
      {"tmr", [] { return cs::make_tmr({}); }, false},
      {"quickstart", model_file("quickstart"), true},
      {"mutex_ring", model_file("mutex_ring"), true},
      {"Sc^4 d8", [] { return cs::make_chain({.length = 4, .domain = 8}); },
       true},
      {"BA^3", [] { return cs::make_byzantine({.non_generals = 3}); }, false},
  };
  const std::string path =
      ::testing::TempDir() + "verify_tolerant_export.lr";
  for (const ToleranceLevel level :
       {ToleranceLevel::kMasking, ToleranceLevel::kFailsafe,
        ToleranceLevel::kNonmasking}) {
    for (const Input& input : inputs) {
      const std::string what =
          input.name + " at " + tolerance_level_name(level);
      auto program = input.make();
      Options options;
      options.level = level;
      const RepairResult result = lazy_repair(*program, options);
      ASSERT_TRUE(result.success) << what << ": " << result.failure_reason;
      ASSERT_TRUE(export_model_file(*program, result, path)) << what;
      auto exported = lang::parse_program_file(path);
      const VerifyReport report = verify_tolerant_model(*exported, level);
      // A known false rejection: the export keeps the declared invariant
      // S, and for BA^3 at masking the closed subset of S − ms that
      // verify_tolerant_model derives (448 states) is much larger than the
      // repair's S′ (102 states). The repaired program is not tolerant from
      // the extra states, so the correct export is rejected. This pins the
      // defect until the derivation is fixed.
      const bool known_false_rejection =
          input.name == "BA^3" && level == ToleranceLevel::kMasking;
      EXPECT_EQ(report.ok, !known_false_rejection) << what;
      if (!known_false_rejection) {
        for (const std::string& failure : report.failures) {
          ADD_FAILURE() << what << ": " << failure;
        }
      }
      EXPECT_EQ(verify_tolerant_model(*input.make(), level).ok,
                input.tolerant_as_written)
          << what;
    }
  }
  std::remove(path.c_str());

  for (const Input& input : inputs) {
    if (!input.tolerant_as_written) continue;
    auto program = input.make();
    RepairResult as_written;
    as_written.success = true;
    as_written.invariant = program->invariant();
    as_written.fault_span = program->reachable_under_faults();
    as_written.delta = program->actions_delta();
    for (std::size_t j = 0; j < program->process_count(); ++j) {
      as_written.process_deltas.push_back(program->process_delta(j));
    }
    xmodel::ExplicitModel model(*program);
    const xmodel::ExplicitModel::Report report = model.verify(as_written);
    EXPECT_TRUE(report.ok) << input.name;
    for (const std::string& failure : report.failures) {
      ADD_FAILURE() << input.name << " (explicit): " << failure;
    }
  }
}

}  // namespace
}  // namespace lr::repair
