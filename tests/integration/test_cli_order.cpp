// Drives the real repair_cli binary through the --order / --order-out
// surface: warm-start fixpoint byte-stability, the committed golden
// profile for the chain-4 case study, export canonicality across orders,
// and the exit-2 error paths for malformed order arguments. The CLI only
// offers decl, auto and file:PATH; the forced heuristic orders these
// tests need are planned through the API and handed over as profiles.
//
// Regenerate the golden profile after an intentional format change with
//   LR_UPDATE_GOLDEN=1 ./test_cli_order

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "bdd/order.hpp"
#include "casestudies/chain.hpp"
#include "repair/lazy.hpp"
#include "repair/order_setup.hpp"

namespace {

using lr::sym::order::Mode;

std::string cli_path() { return LR_REPAIR_CLI; }

std::string golden_dir() {
  return std::string(LR_SOURCE_DIR) + "/tests/golden";
}

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

std::unique_ptr<lr::prog::DistributedProgram> make_chain(std::size_t length) {
  lr::cs::ChainOptions chain;
  chain.length = length;
  return lr::cs::make_chain(chain);
}

/// Saves the order `mode` plans for the chain of `length` as a profile at
/// `path` (source = the mode name), ready for --order=file:PATH.
void save_planned_profile(std::size_t length, Mode mode,
                          const std::string& path) {
  const auto program = make_chain(length);
  lr::repair::Options options;
  options.order_mode = mode;
  lr::repair::apply_order_options(*program, options);
  ASSERT_TRUE(lr::bdd::order::save_profile(
      lr::repair::capture_order_profile(*program, options), path));
}

TEST(CliOrderTest, WarmStartReachesAByteStableFixpoint) {
  // a: the adjacency plan; run1 file:a -> b; run2 file:b -> c. b and c
  // must be byte-identical: the profile's source field records the mode
  // only, never the path, so the warm start is a fixpoint.
  const std::string a = temp_path("cli_order_a.json");
  const std::string b = temp_path("cli_order_b.json");
  const std::string c = temp_path("cli_order_c.json");
  save_planned_profile(4, Mode::kAdjacency, a);
  CliRun run = run_cli("--chain=4 --order=file:" + a + " --order-out=" + b +
                       " --no-verify");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  run = run_cli("--chain=4 --order=file:" + b + " --order-out=" + c +
                " --no-verify");
  ASSERT_EQ(run.exit_code, 0) << run.output;

  const std::string profile_b = read_file(b);
  const std::string profile_c = read_file(c);
  ASSERT_FALSE(profile_b.empty());
  EXPECT_EQ(profile_b, profile_c) << "warm start is not a fixpoint";
  // The warm-started profile's level order equals the seeding profile's
  // (only the source tag and node statistics may differ).
  const std::string profile_a = read_file(a);
  EXPECT_NE(profile_a.find("\"source\": \"adjacency\""), std::string::npos);
  EXPECT_NE(profile_b.find("\"source\": \"file\""), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(c.c_str());
}

TEST(CliOrderTest, ChainProfileMatchesCommittedGolden) {
  // The end-of-run profile of a chain-4 repair under the adjacency order,
  // captured the way --order-out captures it.
  const auto program = make_chain(4);
  lr::repair::Options options;
  options.order_mode = Mode::kAdjacency;
  const lr::repair::RepairResult result =
      lr::repair::lazy_repair(*program, options);
  ASSERT_TRUE(result.success) << result.failure_reason;
  const std::string actual = lr::bdd::order::profile_to_json(
      lr::repair::capture_order_profile(*program, options));

  const std::string golden_path = golden_dir() + "/chain4.order.json";
  if (std::getenv("LR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << actual;
    return;
  }
  const std::string expected = read_file(golden_path);
  ASSERT_FALSE(expected.empty())
      << "missing golden " << golden_path
      << " (regenerate with LR_UPDATE_GOLDEN=1)";
  EXPECT_EQ(actual, expected)
      << "order profile drifted from chain4.order.json "
      << "(LR_UPDATE_GOLDEN=1 to accept)";
}

TEST(CliOrderTest, ExportsAreByteIdenticalAcrossOrderModes) {
  const std::string base = temp_path("cli_order_export_decl.lr");
  CliRun run = run_cli("--chain=3 --export=" + base + " --no-verify");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string baseline = read_file(base);
  ASSERT_FALSE(baseline.empty());
  std::remove(base.c_str());
  const std::string interleave = temp_path("cli_order_interleave.json");
  const std::string adjacency = temp_path("cli_order_adjacency.json");
  save_planned_profile(3, Mode::kInterleave, interleave);
  save_planned_profile(3, Mode::kAdjacency, adjacency);
  for (const std::string& order :
       {std::string("decl"), std::string("auto"), "file:" + interleave,
        "file:" + adjacency}) {
    const std::string path = temp_path("cli_order_export.lr");
    run = run_cli("--chain=3 --order=" + order + " --export=" + path +
                  " --no-verify");
    ASSERT_EQ(run.exit_code, 0) << run.output;
    EXPECT_EQ(read_file(path), baseline) << "--order=" << order;
    std::remove(path.c_str());
  }
  std::remove(interleave.c_str());
  std::remove(adjacency.c_str());
}

TEST(CliOrderTest, StatsPrintsTheOrderSectionOnlyWhenAsked) {
  const std::string profile = temp_path("cli_order_stats.json");
  save_planned_profile(3, Mode::kInterleave, profile);
  const CliRun with_order = run_cli("--chain=3 --order=file:" + profile +
                                    " --stats --no-verify");
  std::remove(profile.c_str());
  ASSERT_EQ(with_order.exit_code, 0) << with_order.output;
  EXPECT_NE(with_order.output.find("bdd order:"), std::string::npos);
  EXPECT_NE(with_order.output.find("mode: file"), std::string::npos);

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
  EXPECT_EQ(run_cli("--chain=3 --order=file:").exit_code, 2);
  EXPECT_EQ(run_cli("--chain=3 --order=file:/no/such/profile.json").exit_code,
            2);
  // A profile for a different model must be rejected before the repair.
  const std::string other = temp_path("cli_order_other_model.json");
  const CliRun seed = run_cli("--chain=5 --order-out=" + other +
                              " --no-verify");
  ASSERT_EQ(seed.exit_code, 0) << seed.output;
  EXPECT_EQ(run_cli("--chain=3 --order=file:" + other).exit_code, 2);
  std::remove(other.c_str());
}

TEST(CliOrderTest, HelpMarkdownPrintsTheFlagTable) {
  const CliRun run = run_cli("--help-markdown");
  ASSERT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.output.rfind("# `repair_cli` flag reference", 0), 0u);
  EXPECT_NE(run.output.find("| `--order` |"), std::string::npos);
  EXPECT_NE(run.output.find("| `--order-out` |"), std::string::npos);
}

}  // namespace
