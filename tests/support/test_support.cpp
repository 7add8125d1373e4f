// Unit tests for the small support utilities.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <stdexcept>

#include "support/cli.hpp"
#include "support/fs.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace lr::support {
namespace {

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotone) {
  Stopwatch sw;
  const auto a = sw.elapsed();
  const auto b = sw.elapsed();
  EXPECT_GE(a.count(), 0);
  EXPECT_GE(b.count(), a.count());
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
}

TEST(StopwatchTest, FormatDuration) {
  EXPECT_EQ(format_duration(0.25), "250ms");
  EXPECT_EQ(format_duration(2.5), "2.50s");
  EXPECT_EQ(format_duration(1234.0), "1234s");
  EXPECT_EQ(format_duration(0.0001), "0.100ms");
}

TEST(TableTest, AlignsColumns) {
  Table t({"a", "long-header"});
  t.add_row({"xxxx", "1"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a    | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxx | 1           |"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(TableTest, FormatStateCount) {
  EXPECT_EQ(format_state_count(0), "0");
  EXPECT_EQ(format_state_count(123456), "123456");
  EXPECT_EQ(format_state_count(1.0e7), "1.0e7");
  EXPECT_EQ(format_state_count(3.3e30), "3.3e30");
}

TEST(RngTest, DeterministicFromSeed) {
  SplitMix64 a(99);
  SplitMix64 b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, BelowStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, FlipProducesBothValues) {
  SplitMix64 rng(1);
  bool saw_true = false;
  bool saw_false = false;
  for (int i = 0; i < 100; ++i) {
    (rng.flip() ? saw_true : saw_false) = true;
  }
  EXPECT_TRUE(saw_true);
  EXPECT_TRUE(saw_false);
}

TEST(CliTest, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--n=7", "--name=chain", "pos1"};
  CommandLine cli(4, argv);
  EXPECT_EQ(cli.get_int("n", 0), 7);
  EXPECT_EQ(cli.get("name", ""), "chain");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(CliTest, ParsesKeySpaceValueAndFlags) {
  const char* argv[] = {"prog", "--n", "12", "--verbose"};
  CommandLine cli(4, argv);
  EXPECT_EQ(cli.get_int("n", 0), 12);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
  EXPECT_EQ(cli.get_int("missing", -3), -3);
}

TEST(CliTest, FallbackOnUnparsableInt) {
  const char* argv[] = {"prog", "--n=abc"};
  CommandLine cli(2, argv);
  EXPECT_EQ(cli.get_int("n", 5), 5);
}

TEST(FsTest, StreamedWriteLandsAtomically) {
  const std::string path = ::testing::TempDir() + "fs_streamed.txt";
  ASSERT_TRUE(write_file_atomic(path, [](std::ostream& out) {
    out << "first ";
    out << "second";
  }));
  EXPECT_EQ(read_file(path), std::optional<std::string>("first second"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FsTest, FailedStreamedWriteKeepsOldFileAndRemovesTemp) {
  const std::string path = ::testing::TempDir() + "fs_streamed_fail.txt";
  ASSERT_TRUE(write_file_atomic(path, std::string("old")));
  EXPECT_FALSE(write_file_atomic(path, [](std::ostream& out) {
    out << "torn";
    out.setstate(std::ios::failbit);
  }));
  EXPECT_EQ(read_file(path), std::optional<std::string>("old"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  EXPECT_THROW((void)write_file_atomic(path,
                                       [](std::ostream& out) {
                                         out << "torn";
                                         throw std::runtime_error("writer");
                                       }),
               std::runtime_error);
  EXPECT_EQ(read_file(path), std::optional<std::string>("old"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lr::support
