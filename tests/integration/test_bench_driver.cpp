// Drives the built paper-table driver (bench/bench_batch_tables): the
// Table II-b rows print with a `Steps` column, those step counts do not
// depend on --jobs, and the flags of the retired sweeps are rejected as
// usage errors.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct DriverRun {
  int exit_code = -1;
  std::string output;  ///< stdout only
};

DriverRun run_driver(const std::string& args) {
  DriverRun run;
  const std::string command =
      std::string(LR_BENCH_BATCH_TABLES) + " " + args + " 2>/dev/null";
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

/// The trimmed cells of one "| a | b |" table line; empty for other lines.
std::vector<std::string> cells(const std::string& line) {
  std::vector<std::string> out;
  if (line.empty() || line.front() != '|') return out;
  std::istringstream in(line.substr(1));
  std::string cell;
  while (std::getline(in, cell, '|')) {
    const auto first = cell.find_first_not_of(' ');
    const auto last = cell.find_last_not_of(' ');
    out.push_back(first == std::string::npos
                      ? ""
                      : cell.substr(first, last - first + 1));
  }
  return out;
}

struct ChainRow {
  std::string steps;
  std::string result;
};

/// The Sc^n rows of the driver's output, keyed by instance.
std::map<std::string, ChainRow> chain_rows(const std::string& output) {
  std::map<std::string, ChainRow> rows;
  std::istringstream in(output);
  std::string line;
  std::size_t steps_col = 0;
  std::size_t result_col = 0;
  while (std::getline(in, line)) {
    const std::vector<std::string> row = cells(line);
    if (row.empty()) continue;
    if (row[0] == "Instance") {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (row[c] == "Steps") steps_col = c;
        if (row[c] == "Result") result_col = c;
      }
    } else if (row[0].rfind("Sc^", 0) == 0 && steps_col > 0 &&
               result_col > 0) {
      rows[row[0]] = {row[steps_col], row[result_col]};
    }
  }
  return rows;
}

TEST(BenchDriverTest, ChainTablePrintsStepsThatDoNotDependOnJobs) {
  const DriverRun serial = run_driver("--table=3 --jobs=1");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_NE(serial.output.find("=== Table II-b"), std::string::npos);
  const std::map<std::string, ChainRow> rows = chain_rows(serial.output);
  ASSERT_EQ(rows.size(), 6u) << serial.output;
  for (const auto& [instance, row] : rows) {
    EXPECT_EQ(row.result, "ok") << instance;
    ASSERT_FALSE(row.steps.empty()) << instance;
    EXPECT_EQ(row.steps.find_first_not_of("0123456789"), std::string::npos)
        << instance << ": " << row.steps;
    EXPECT_NE(row.steps, "0") << instance;
  }

  const DriverRun parallel = run_driver("--table=3 --jobs=2");
  ASSERT_EQ(parallel.exit_code, 0) << parallel.output;
  const std::map<std::string, ChainRow> parallel_rows =
      chain_rows(parallel.output);
  ASSERT_EQ(parallel_rows.size(), rows.size());
  for (const auto& [instance, row] : rows) {
    const auto it = parallel_rows.find(instance);
    ASSERT_NE(it, parallel_rows.end()) << instance;
    EXPECT_EQ(it->second.steps, row.steps) << instance;
  }
}

TEST(BenchDriverTest, RetiredSweepFlagsAreUsageErrors) {
  for (const char* flag : {"--compare-jobs=1", "--order=auto",
                           "--batch-jobs=2", "--par-intra=2"}) {
    EXPECT_EQ(run_driver(std::string("--table=3 ") + flag).exit_code, 2)
        << flag;
  }
  EXPECT_EQ(run_driver("--table=4").exit_code, 2);
}

}  // namespace
