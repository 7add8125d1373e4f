// Drives the real repair_cli binary through the --order surface: export
// canonicality across the two command-line modes (decl and auto), the
// --stats order section, the exit-2 error paths for malformed or retired
// order arguments, and the --help-markdown flag table. The forced
// heuristic orders are covered through the API in test_order_modes.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string cli_path() { return LR_REPAIR_CLI; }

struct CliRun {
  int exit_code = -1;
  std::string output;  ///< stdout only (stderr carries timing/log noise)
};

CliRun run_cli(const std::string& args) {
  CliRun run;
  const std::string command = cli_path() + " " + args + " 2>/dev/null";
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(CliOrderTest, ExportsAreByteIdenticalAcrossOrderModes) {
  const std::string base = temp_path("cli_order_export_decl.lr");
  CliRun run = run_cli("--chain=3 --export=" + base + " --no-verify");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string baseline = read_file(base);
  ASSERT_FALSE(baseline.empty());
  std::remove(base.c_str());
  for (const std::string order : {"decl", "auto"}) {
    const std::string path = temp_path("cli_order_export.lr");
    run = run_cli("--chain=3 --order=" + order + " --export=" + path +
                  " --no-verify");
    ASSERT_EQ(run.exit_code, 0) << run.output;
    EXPECT_EQ(read_file(path), baseline) << "--order=" << order;
    std::remove(path.c_str());
  }
}

TEST(CliOrderTest, StatsPrintsTheOrderSectionOnlyWhenAsked) {
  const CliRun with_order = run_cli(std::string(LR_SOURCE_DIR) +
                                    "/models/tmr.lr --order=auto --stats");
  ASSERT_EQ(with_order.exit_code, 0) << with_order.output;
  EXPECT_NE(with_order.output.find("bdd order:"), std::string::npos);
  EXPECT_NE(with_order.output.find("mode: interleave (requested auto)"),
            std::string::npos);

  // Default runs must not grow a new stats section (golden stability).
  const CliRun without = run_cli("--chain=3 --stats --no-verify");
  ASSERT_EQ(without.exit_code, 0) << without.output;
  EXPECT_EQ(without.output.find("bdd order:"), std::string::npos);
}

TEST(CliOrderTest, BadOrderArgumentsExitTwo) {
  EXPECT_EQ(run_cli("--chain=3 --order=sideways").exit_code, 2);
  // The heuristics are auto's candidates, not modes of their own.
  EXPECT_EQ(run_cli("--chain=3 --order=interleave").exit_code, 2);
  EXPECT_EQ(run_cli("--chain=3 --order=adjacency").exit_code, 2);
  // The order is computed from the model, never read from or written to
  // a file.
  EXPECT_EQ(run_cli("--chain=3 --order=file:x.json").exit_code, 2);
  EXPECT_EQ(run_cli("--chain=3 --order-out=x.json").exit_code, 2);
}

TEST(CliOrderTest, HelpMarkdownPrintsTheFlagTable) {
  const CliRun run = run_cli("--help-markdown");
  ASSERT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.output.rfind("# `repair_cli` flag reference", 0), 0u);
  EXPECT_NE(run.output.find("| `--order` |"), std::string::npos);
  EXPECT_EQ(run.output.find("--order-out"), std::string::npos);
}

}  // namespace
