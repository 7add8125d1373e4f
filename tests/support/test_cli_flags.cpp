// Flag-table sync tests: repair_cli's accepted flags, its --help text and
// the docs/flags.md reference are all generated from / checked against
// repair::repair_cli_flag_specs(). These tests keep them in sync:
//  1. every flag the repair_cli source actually queries is declared,
//  2. every declared flag appears in the generated --help text,
//  3. every declared flag appears in the generated Markdown reference
//     (the committed docs/flags.md copy is byte-checked by test_docs.cpp),
//  4. the repair_cli binary prints that reference for --help-markdown.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "repair/cli_spec.hpp"
#include "support/cli.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string source_root() { return LR_SOURCE_DIR; }

/// Flags the repair_cli source actually queries: every cli.has("x"),
/// cli.get("x", ...) and cli.get_int("x", ...) call site.
std::set<std::string> flags_queried_by_source() {
  const std::string source =
      read_file(source_root() + "/examples/repair_cli.cpp");
  EXPECT_FALSE(source.empty()) << "cannot read examples/repair_cli.cpp";
  static const std::regex query(R"~(cli\.(?:has|get|get_int)\(\s*"([a-z-]+)")~");
  std::set<std::string> names;
  for (std::sregex_iterator it(source.begin(), source.end(), query), end;
       it != end; ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

TEST(CliFlagsTest, EveryQueriedFlagIsDeclaredInTheSpecTable) {
  const auto& specs = lr::repair::repair_cli_flag_specs();
  std::set<std::string> declared;
  for (const lr::support::FlagSpec& spec : specs) declared.insert(spec.name);
  const std::set<std::string> queried = flags_queried_by_source();
  ASSERT_FALSE(queried.empty());
  for (const std::string& name : queried) {
    EXPECT_TRUE(declared.count(name) != 0)
        << "repair_cli queries --" << name
        << " but does not declare it in repair_cli_flag_specs() — "
        << "--help and docs/flags.md would miss it";
  }
}

TEST(CliFlagsTest, EveryDeclaredFlagAppearsInHelpOutput) {
  const std::string usage = lr::repair::repair_cli_usage("repair_cli");
  for (const lr::support::FlagSpec& spec :
       lr::repair::repair_cli_flag_specs()) {
    EXPECT_NE(usage.find("--" + spec.name), std::string::npos)
        << "--" << spec.name << " missing from --help output";
    EXPECT_FALSE(spec.help.empty()) << "--" << spec.name << " has no help";
  }
}

TEST(CliFlagsTest, EveryDeclaredFlagIsDocumentedInFlagsMarkdown) {
  const std::string markdown = lr::repair::repair_cli_flags_markdown();
  ASSERT_FALSE(markdown.empty());
  for (const lr::support::FlagSpec& spec :
       lr::repair::repair_cli_flag_specs()) {
    EXPECT_NE(markdown.find("`--" + spec.name + "`"), std::string::npos)
        << "--" << spec.name
        << " is missing from the generated docs/flags.md table";
    EXPECT_FALSE(spec.help.empty()) << "--" << spec.name << " has no help";
  }
  // Exactly one table row per declared flag, nothing invented.
  std::size_t rows = 0;
  for (std::size_t pos = markdown.find("\n| `--"); pos != std::string::npos;
       pos = markdown.find("\n| `--", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, lr::repair::repair_cli_flag_specs().size());
}

TEST(CliFlagsTest, FlagsMarkdownCellsAreSingleLine) {
  // The terminal help wraps with embedded newlines and uses '|' freely
  // (mode alternatives); the Markdown table must flatten the newlines and
  // escape the pipes or the table breaks.
  const std::string markdown = lr::repair::repair_cli_flags_markdown();
  std::istringstream lines(markdown);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `--", 0) != 0) continue;
    std::size_t cell_pipes = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '|' && (i == 0 || line[i - 1] != '\\')) ++cell_pipes;
    }
    EXPECT_EQ(cell_pipes, 4u) << "table row malformed: " << line;
  }
}

TEST(CliFlagsTest, HelpMarkdownPrintsTheFlagTable) {
  const std::string command =
      std::string(LR_REPAIR_CLI) + " --help-markdown 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(output, lr::repair::repair_cli_flags_markdown());
  EXPECT_EQ(output.rfind("# `repair_cli` flag reference", 0), 0u);
  EXPECT_NE(output.find("| `--stats` |"), std::string::npos);
}

TEST(CliFlagsTest, OptionNamesReportsEveryPassedFlag) {
  const char* argv[] = {"prog", "--alpha=1", "--beta", "value", "--gamma",
                        "--alpha=2"};
  const lr::support::CommandLine cli(6, argv);
  const std::vector<std::string> names = cli.option_names();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(CliFlagsTest, FormatFlagHelpAlignsAndContinuesMultilineHelp) {
  const std::vector<lr::support::FlagSpec> specs = {
      {"short", "N", "one line"},
      {"two-liner", "", "first\nsecond"},
  };
  const std::string text = lr::support::format_flag_help(specs);
  EXPECT_NE(text.find("  --short=N"), std::string::npos);
  EXPECT_NE(text.find("one line\n"), std::string::npos);
  // The continuation line is indented to the help column.
  EXPECT_NE(text.find("\n                        second\n"),
            std::string::npos)
      << text;
}

}  // namespace
