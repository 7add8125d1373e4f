// Interrupt/resume integration tests for `repair_cli --batch --resume`:
// run a 6-model sweep, simulate a crash by truncating the checkpoint
// manifest after 3 rows, resume, and require (a) exactly 3 tasks skipped
// and (b) stdout byte-identical to the uninterrupted run. A staleness test
// then edits one input model and requires that only it re-runs.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "repair/manifest.hpp"
#include "support/fs.hpp"
#include "support/json.hpp"

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  ///< stdout only (stderr carries timing/log noise)
};

CliRun run_cli(const std::string& args) {
  CliRun run;
  const std::string command =
      std::string(LR_REPAIR_CLI) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    run.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Gauge value from a --metrics-json report; nullopt when absent.
std::optional<double> gauge(const std::string& metrics_path,
                            const std::string& key) {
  const auto doc = lr::support::json_parse(read_file(metrics_path));
  if (!doc) return std::nullopt;
  const lr::support::JsonValue* gauges = doc->find("gauges");
  if (gauges == nullptr) return std::nullopt;
  const lr::support::JsonValue* value = gauges->find(key);
  if (value == nullptr || !value->is_number()) return std::nullopt;
  return value->number;
}

class CliResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs each test as its own process of this
    // binary, so a shared directory name races between concurrent tests.
    dir_ = ::testing::TempDir() + std::string("cli_resume_sweep_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_);
    // Six structurally identical single-counter models with distinct
    // names: small enough that the full sweep is fast, plural enough that
    // "resume skipped exactly the recorded prefix" is meaningful.
    for (int i = 1; i <= 6; ++i) {
      write_model(i, "");
    }
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void write_model(int i, const std::string& suffix) {
    const std::string name = model_name(i);
    ASSERT_TRUE(lr::support::write_file_atomic(
        dir_ + "/" + name + ".lr",
        "program " + name + ";\n"
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

  static std::string model_name(int i) {
    return "sweep" + std::to_string(i);
  }

  std::string manifest_path() const { return dir_ + "/batch.manifest.json"; }

  CliRun run_sweep(const std::string& metrics_name) {
    return run_cli("--batch " + dir_ + " --resume --jobs 2 --metrics-json=" +
                   dir_ + "/" + metrics_name);
  }

  std::string dir_;
};

TEST_F(CliResumeTest, TruncatedManifestResumesWithByteIdenticalStdout) {
  // Uninterrupted reference sweep (cold: the manifest does not exist yet).
  const CliRun cold = run_sweep("metrics_cold.json");
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("batch summary: 6/6 ok"), std::string::npos)
      << cold.output;

  // Simulate a crash after 3 completed tasks: drop the last 3 manifest
  // rows, exactly as if the process died before writing them.
  std::optional<lr::repair::Manifest> manifest =
      lr::repair::Manifest::load(manifest_path());
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->size(), 6u);
  for (int i = 4; i <= 6; ++i) {
    ASSERT_TRUE(manifest->erase(model_name(i)));
  }
  ASSERT_TRUE(manifest->save(manifest_path()));

  const CliRun resumed = run_sweep("metrics_resumed.json");
  EXPECT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(resumed.output, cold.output)
      << "a resumed sweep must print byte-identical stdout";

  // Exactly the 3 recorded tasks were skipped; the 3 dropped ones re-ran.
  const std::string metrics = dir_ + "/metrics_resumed.json";
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(gauge(metrics, "batch." + model_name(i) + ".lazy.resumed"),
              std::optional<double>(1.0))
        << model_name(i);
  }
  for (int i = 4; i <= 6; ++i) {
    EXPECT_EQ(gauge(metrics, "batch." + model_name(i) + ".lazy.resumed"),
              std::optional<double>(0.0))
        << model_name(i);
  }
}

TEST_F(CliResumeTest, EditedModelAloneRerunsOnResume) {
  const CliRun cold = run_sweep("metrics_cold.json");
  ASSERT_EQ(cold.exit_code, 0) << cold.output;

  // A semantically neutral edit still changes the input hash: staleness is
  // detected at the byte level, not by re-deriving semantics.
  write_model(2, "// touched\n");

  const CliRun resumed = run_sweep("metrics_stale.json");
  EXPECT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(resumed.output, cold.output)
      << "the edit is semantically neutral, so stdout must not change";
  const std::string metrics = dir_ + "/metrics_stale.json";
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(gauge(metrics, "batch." + model_name(i) + ".lazy.resumed"),
              std::optional<double>(i == 2 ? 0.0 : 1.0))
        << model_name(i);
  }
}

TEST_F(CliResumeTest, FullyRecordedSweepSkipsEverythingAndStaysGreen) {
  const CliRun cold = run_sweep("metrics_cold.json");
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  const CliRun warm = run_sweep("metrics_warm.json");
  EXPECT_EQ(warm.exit_code, 0);
  EXPECT_EQ(warm.output, cold.output);
  const std::string metrics = dir_ + "/metrics_warm.json";
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(gauge(metrics, "batch." + model_name(i) + ".lazy.resumed"),
              std::optional<double>(1.0))
        << model_name(i);
  }
}

}  // namespace
