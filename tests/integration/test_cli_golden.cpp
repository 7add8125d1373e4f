// Golden-file tests for the repair_cli front end: run the real binary on
// the checked-in models and compare its stdout and its --metrics-json
// report against expectations under tests/golden/. Timing fields are
// normalized away (they are the only nondeterministic output); everything
// else — state counts, verification verdicts, metric keys and counter
// values — is pinned byte-for-byte.
//
// Regenerate the goldens after an intentional output change with
//   LR_UPDATE_GOLDEN=1 ./test_cli_golden

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

namespace {

std::string cli_path() { return LR_REPAIR_CLI; }

std::string lr_report_path() { return LR_LR_REPORT; }

std::string golden_dir() { return std::string(LR_SOURCE_DIR) + "/tests/golden"; }

std::string models_dir() { return std::string(LR_SOURCE_DIR) + "/models"; }

struct CliRun {
  int exit_code = -1;
  std::string output;  ///< stdout only (stderr carries timing/log noise)
};

CliRun run_command(const std::string& command) {
  CliRun run;
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

CliRun run_cli(const std::string& args) {
  return run_command(cli_path() + " " + args + " 2>/dev/null");
}

/// Replaces duration tokens ("40ms", "0.123ms", "2.01s") with "<time>",
/// then collapses runs of spaces: the summary table pads its value column
/// to the widest entry, so a timing that crosses a digit or unit boundary
/// ("98ms" -> "102ms" -> "1.02s") would otherwise shift padding around
/// deterministic cells. State counts never match the duration pattern:
/// they are bare integers or carry an e-exponent ("6.2e10"), no unit.
std::string normalize_stdout(const std::string& text) {
  static const std::regex duration(R"((\d+(\.\d+)?)(ms|s)\b)");
  static const std::regex spaces(R"(  +)");
  return std::regex_replace(std::regex_replace(text, duration, "<time>"),
                            spaces, " ");
}

/// Blanks the values of timing gauges in the pretty-printed metrics JSON
/// (one "key": value per line, so a line-anchored regex is exact).
std::string normalize_metrics(const std::string& text) {
  static const std::regex timing(R"~(("[^"]*(seconds|_time)[^"]*":\s*)[-0-9.eE+]+)~");
  return std::regex_replace(text, timing, "$1<time>");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compares `actual` to the golden file, or rewrites the golden when
/// LR_UPDATE_GOLDEN is set.
void expect_matches_golden(const std::string& actual,
                           const std::string& golden_name) {
  const std::string path = golden_dir() + "/" + golden_name;
  if (std::getenv("LR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden " << path
      << " (regenerate with LR_UPDATE_GOLDEN=1)";
  EXPECT_EQ(actual, expected) << "output drifted from " << golden_name
                              << " (LR_UPDATE_GOLDEN=1 to accept)";
}

class CliGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CliGoldenTest, StdoutMatchesGolden) {
  const std::string model = GetParam();
  const CliRun run = run_cli(models_dir() + "/" + model + ".lr --stats");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  expect_matches_golden(normalize_stdout(run.output),
                        model + ".stdout.golden");
}

TEST_P(CliGoldenTest, MetricsReportMatchesGolden) {
  const std::string model = GetParam();
  const std::string metrics_path =
      ::testing::TempDir() + "cli_golden_" + model + ".json";
  const CliRun run = run_cli(models_dir() + "/" + model + ".lr" +
                             " --metrics-json=" + metrics_path);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  const std::string metrics = read_file(metrics_path);
  ASSERT_FALSE(metrics.empty()) << "no metrics report at " << metrics_path;
  expect_matches_golden(normalize_metrics(metrics),
                        model + ".metrics.golden");
  std::remove(metrics_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Models, CliGoldenTest,
                         ::testing::Values("quickstart", "tmr", "mutex_ring"));

TEST(CliGoldenTest_Batch, BatchStdoutMatchesGoldenAndIsJobIndependent) {
  const CliRun jobs1 = run_cli("--batch " + models_dir() + " --jobs 1");
  const CliRun jobs8 = run_cli("--batch " + models_dir() + " --jobs 8");
  EXPECT_EQ(jobs1.exit_code, 0);
  EXPECT_EQ(jobs8.exit_code, 0);
  // The batch report prints no timing on stdout, so the two runs must be
  // byte-identical before any normalization.
  EXPECT_EQ(jobs1.output, jobs8.output);
  // Normalize the model directory path out of the header line.
  std::string stable = jobs1.output;
  const std::string dir = models_dir();
  for (std::size_t at = stable.find(dir); at != std::string::npos;
       at = stable.find(dir)) {
    stable.replace(at, dir.size(), "<models>");
  }
  expect_matches_golden(stable, "batch.stdout.golden");
}

TEST(CliGoldenTest_Batch, BatchWithTwoJobsMatchesTheSequentialSweep) {
  // A sweep running two tasks concurrently prints byte-identical stdout to
  // the fully sequential sweep — and both match the same committed golden.
  const CliRun seq = run_cli("--batch " + models_dir() + " --jobs 1");
  const CliRun par = run_cli("--batch " + models_dir() + " --jobs 2");
  EXPECT_EQ(seq.exit_code, 0);
  EXPECT_EQ(par.exit_code, 0);
  EXPECT_EQ(seq.output, par.output) << "--jobs changed a batch-reported result";
  std::string stable = par.output;
  const std::string dir = models_dir();
  for (std::size_t at = stable.find(dir); at != std::string::npos;
       at = stable.find(dir)) {
    stable.replace(at, dir.size(), "<models>");
  }
  expect_matches_golden(stable, "batch.stdout.golden");
}

TEST(CliGoldenTest_Batch, FailingTaskYieldsNonzeroExitAndFailureSummary) {
  // A sweep with one poisoned model must finish the healthy ones, print a
  // one-line failure summary and exit nonzero — not abort the sweep.
  const std::string dir = ::testing::TempDir() + "cli_golden_failures";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream good(dir + "/healthy.lr");
    good << read_file(models_dir() + "/quickstart.lr");
  }
  {
    std::ofstream bad(dir + "/poisoned.lr");
    bad << "program poisoned;\nvar x : 0..2;\nthis is not a model\n";
  }
  const CliRun run = run_cli("--batch " + dir + " --jobs 2");
  EXPECT_EQ(run.exit_code, 1)
      << "a captured per-task failure must fail the sweep:\n" << run.output;
  EXPECT_NE(run.output.find("batch summary: 1/2 ok"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("batch failures: poisoned (failed)"),
            std::string::npos)
      << run.output;
  std::string stable = run.output;
  for (std::size_t at = stable.find(dir); at != std::string::npos;
       at = stable.find(dir)) {
    stable.replace(at, dir.size(), "<dir>");
  }
  expect_matches_golden(normalize_stdout(stable),
                        "batch_failures.stdout.golden");
  std::filesystem::remove_all(dir);
}

TEST(CliGoldenTest_Batch, CheckpointManifestMatchesGolden) {
  // Locks the manifest JSON schema: field names, nesting, sorting and the
  // always-present keys. Timing and machine-local paths are normalized.
  const std::string dir = ::testing::TempDir() + "cli_golden_manifest";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream model(dir + "/quickstart.lr");
    model << read_file(models_dir() + "/quickstart.lr");
  }
  const CliRun run =
      run_cli("--batch " + dir + " --manifest=" + dir + "/manifest.json");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  std::string manifest = read_file(dir + "/manifest.json");
  ASSERT_FALSE(manifest.empty());
  for (std::size_t at = manifest.find(dir); at != std::string::npos;
       at = manifest.find(dir)) {
    manifest.replace(at, dir.size(), "<dir>");
  }
  expect_matches_golden(normalize_metrics(manifest), "manifest.golden");
  std::filesystem::remove_all(dir);
}

TEST(CliGoldenTest_Help, HelpListsEveryFlagAndExitsZero) {
  const CliRun run = run_cli("--help");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* flag : {"--batch", "--resume", "--manifest",
                           "--task-timeout", "--retries", "--export-dir"}) {
    EXPECT_NE(run.output.find(flag), std::string::npos)
        << flag << " missing from --help:\n" << run.output;
  }
  // --par-intra named the deleted intra-problem engine.
  for (const char* flag : {"--no-such-flag", "--par-intra=2"}) {
    const CliRun unknown = run_cli(models_dir() + "/tmr.lr " + flag);
    EXPECT_EQ(unknown.exit_code, 2)
        << flag << ": unknown flags must be rejected";
  }
}

TEST(CliOrderTest, BadOrderArgumentsExitTwo) {
  // The order flags chose a planned variable order or saved one; the
  // declaration order is now the only order, so every form is unknown.
  for (const char* flag :
       {"--order=auto", "--order=decl", "--order=sideways",
        "--order=interleave", "--order=adjacency", "--order=file:x.json",
        "--order-out=x.json"}) {
    const CliRun unknown = run_cli(models_dir() + "/tmr.lr " + flag);
    EXPECT_EQ(unknown.exit_code, 2)
        << flag << ": order flags must be rejected";
  }
}

TEST(CliGoldenTest_Progress, HeartbeatsNeverTouchStdout) {
  // A torture interval makes every fixpoint round emit; all of it must go
  // to stderr, leaving batch stdout byte-identical to a silent run.
  const CliRun quiet = run_cli("--batch " + models_dir() + " --jobs 2");
  const CliRun noisy =
      run_cli("--batch " + models_dir() + " --jobs 2 --progress=0.001");
  EXPECT_EQ(quiet.exit_code, 0);
  EXPECT_EQ(noisy.exit_code, 0);
  EXPECT_EQ(quiet.output, noisy.output);
}

TEST(CliGoldenTest_Progress, SingleRunHeartbeatsLandOnStderr) {
  // A built-in chain big enough to outlive the minimum 1ms interval.
  // Without 2>/dev/null the heartbeat lines are visible — and tagged.
  const CliRun run = run_command(cli_path() +
                                 " --chain=12 --domain=4 --no-verify"
                                 " --progress=0.0001 2>&1 >/dev/null");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("[progress] "), std::string::npos)
      << "expected at least one heartbeat on stderr:\n"
      << run.output;
}

/// Writes a minimal metrics report for the comparator tests.
std::string write_report(const std::string& name, double wall_seconds,
                         double rounds) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << "{\n  \"counters\": {\n    \"bdd.gc_runs\": 10,\n"
      << "    \"repair.rounds\": " << rounds << "\n  },\n"
      << "  \"gauges\": {\n    \"bdd.peak_nodes\": 1000,\n"
      << "    \"bench.wall_seconds\": " << wall_seconds << "\n  }\n}\n";
  return path;
}

TEST(CliGoldenTest_LrReport, DiffTableMatchesGoldenAndPasses) {
  const std::string baseline = write_report("lr_report_base.json", 10.0, 4);
  const std::string current = write_report("lr_report_cur.json", 12.5, 6);
  const CliRun run = run_command(lr_report_path() + " " + baseline + " " +
                                 current + " 2>/dev/null");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  // The header echoes the temp paths; normalize them out.
  std::string stable = run.output;
  for (const std::string& path : {baseline, current}) {
    const std::size_t at = stable.find(path);
    ASSERT_NE(at, std::string::npos);
    stable.replace(at, path.size(), "<report>");
  }
  expect_matches_golden(stable, "lr_report.golden");
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

TEST(CliGoldenTest_LrReport, ZeroBaselineAndOneSidedKeysReportNa) {
  // A zero baseline must print "n/a" (never inf or a division), and a key
  // present on only one side must still be listed with "n/a" on the other
  // — not silently skipped.
  const std::string baseline = ::testing::TempDir() + "lr_report_na_base.json";
  const std::string current = ::testing::TempDir() + "lr_report_na_cur.json";
  {
    std::ofstream out(baseline);
    out << "{\n  \"counters\": {\n    \"a.zero\": 0,\n    \"only.base\": 5\n"
        << "  },\n  \"gauges\": {\n    \"bench.wall_seconds\": 10\n  }\n}\n";
  }
  {
    std::ofstream out(current);
    out << "{\n  \"counters\": {\n    \"a.zero\": 3,\n    \"only.cur\": 7\n"
        << "  },\n  \"gauges\": {\n    \"bench.wall_seconds\": 10\n  }\n}\n";
  }
  const CliRun run = run_command(lr_report_path() + " " + baseline + " " +
                                 current + " --all 2>/dev/null");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("a.zero"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("only.base"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("only.cur"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("n/a"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("inf"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("nan"), std::string::npos) << run.output;

  // A zero-baseline gate with a nonzero current is a regression (the
  // metric appeared), reported with an n/a ratio — not an exception.
  const CliRun gate = run_command(lr_report_path() + " " + baseline + " " +
                                  current + " --key=a.zero 2>/dev/null");
  EXPECT_EQ(gate.exit_code, 1) << gate.output;
  EXPECT_NE(gate.output.find("gate: a.zero ratio n/a"), std::string::npos)
      << gate.output;
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

TEST(CliGoldenTest_LrReport, RegressionBeyondMaxRatioFails) {
  const std::string baseline = write_report("lr_report_base2.json", 10.0, 4);
  const std::string doctored = write_report("lr_report_bad.json", 30.0, 4);
  const CliRun run = run_command(lr_report_path() + " " + baseline + " " +
                                 doctored + " --max-ratio=2.0 2>/dev/null");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("FAIL"), std::string::npos) << run.output;

  // The same pair passes with a permissive ratio: the gate, not the diff,
  // decides the exit code.
  const CliRun lenient = run_command(lr_report_path() + " " + baseline + " " +
                                     doctored + " --max-ratio=4 2>/dev/null");
  EXPECT_EQ(lenient.exit_code, 0) << lenient.output;

  // A missing gate metric is loud (usage/parse error), not silently green.
  const CliRun missing =
      run_command(lr_report_path() + " " + baseline + " " + doctored +
                  " --key=no.such.metric 2>/dev/null");
  EXPECT_EQ(missing.exit_code, 2);
  std::remove(baseline.c_str());
  std::remove(doctored.c_str());
}

// ---------------------------------------------------------------------------
// Flamegraph export (--flamegraph) and collapsed-profile diff (--flame)

TEST(CliGoldenTest_Flame, CollapsedProfileMatchesGolden) {
  // The default weight (work_steps) is machine-independent, so the
  // collapsed file is a byte-exact golden.
  const std::string path = ::testing::TempDir() + "cli_golden_tmr.collapsed";
  const CliRun run = run_cli(models_dir() + "/tmr.lr --flamegraph=" + path);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  const std::string collapsed = read_file(path);
  ASSERT_FALSE(collapsed.empty()) << "no collapsed profile at " << path;
  expect_matches_golden(collapsed, "tmr.flame.golden");
  std::remove(path.c_str());
}

TEST(CliGoldenTest_Flame, BadWeightAndBatchModeAreRejected) {
  const std::string path = ::testing::TempDir() + "cli_golden_rejected.collapsed";
  const CliRun bad = run_cli(models_dir() + "/tmr.lr --flamegraph=" + path +
                             " --flamegraph-weight=calories");
  EXPECT_EQ(bad.exit_code, 2) << "unknown weight must be a usage error";
  const CliRun batch =
      run_cli("--batch " + models_dir() + " --flamegraph=" + path);
  EXPECT_EQ(batch.exit_code, 2) << "--flamegraph needs a single model";
}

TEST(CliGoldenTest_LrReport, FlameDiffMatchesGoldenAndGates) {
  const std::string baseline = ::testing::TempDir() + "flame_base.collapsed";
  const std::string current = ::testing::TempDir() + "flame_cur.collapsed";
  {
    std::ofstream out(baseline);
    out << "main;hot 100\nmain;cold 50\nmain;vanished 10\n";
  }
  {
    std::ofstream out(current);
    out << "main;hot 130\nmain;cold 45\nmain;appeared 5\n";
  }
  const CliRun run = run_command(lr_report_path() + " --flame " + baseline +
                                 " " + current + " 2>/dev/null");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  std::string stable = run.output;
  for (const std::string& path : {baseline, current}) {
    const std::size_t at = stable.find(path);
    ASSERT_NE(at, std::string::npos);
    stable.replace(at, path.size(), "<collapsed>");
  }
  expect_matches_golden(stable, "lr_report_flame.golden");

  // The same pair fails a tight total-weight gate; the diff tables are
  // advisory, the gate decides the exit code.
  const CliRun gated =
      run_command(lr_report_path() + " --flame " + baseline + " " + current +
                  " --max-ratio=1.05 2>/dev/null");
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
  EXPECT_NE(gated.output.find("FAIL"), std::string::npos) << gated.output;
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

TEST(CliGoldenTest_LrReport, OneSidedKeysStayOutOfTheSummaryDenominator) {
  // Regression cover: one-sided keys are listed with "n/a" but excluded
  // from the "(N of M shared keys listed)" summary, whose counts compare
  // shared keys only. Golden-pinned so the exclusion cannot silently
  // regress.
  const std::string baseline =
      ::testing::TempDir() + "lr_report_onesided_base.json";
  const std::string current =
      ::testing::TempDir() + "lr_report_onesided_cur.json";
  {
    std::ofstream out(baseline);
    out << "{\n  \"counters\": {\n    \"moved.metric\": 10,\n"
        << "    \"only.base\": 5,\n    \"steady.one\": 7,\n"
        << "    \"steady.two\": 9\n  },\n"
        << "  \"gauges\": {\n    \"bench.wall_seconds\": 10\n  }\n}\n";
  }
  {
    std::ofstream out(current);
    out << "{\n  \"counters\": {\n    \"moved.metric\": 20,\n"
        << "    \"only.cur\": 3,\n    \"steady.one\": 7,\n"
        << "    \"steady.two\": 9\n  },\n"
        << "  \"gauges\": {\n    \"bench.wall_seconds\": 10\n  }\n}\n";
  }
  const CliRun run = run_command(lr_report_path() + " " + baseline + " " +
                                 current + " 2>/dev/null");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  std::string stable = run.output;
  for (const std::string& path : {baseline, current}) {
    const std::size_t at = stable.find(path);
    ASSERT_NE(at, std::string::npos);
    stable.replace(at, path.size(), "<report>");
  }
  expect_matches_golden(stable, "lr_report_onesided.golden");
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

// ---------------------------------------------------------------------------
// Repair decision journal (--journal / --explain)

TEST(CliGoldenTest_Journal, ExplainNarrativeMatchesGolden) {
  const CliRun run = run_cli(models_dir() + "/tmr.lr --explain");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  expect_matches_golden(normalize_stdout(run.output),
                        "tmr_explain.stdout.golden");
}

TEST(CliGoldenTest_Journal, JournalJsonlMatchesGolden) {
  // The journal carries no timing and no machine-local paths, so the
  // golden is byte-exact with no normalization at all.
  const std::string path =
      ::testing::TempDir() + "cli_golden_tmr.journal.jsonl";
  const CliRun run = run_cli(models_dir() + "/tmr.lr --journal=" + path);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  const std::string journal = read_file(path);
  ASSERT_FALSE(journal.empty()) << "no journal at " << path;
  expect_matches_golden(journal, "tmr.journal.golden");
  std::remove(path.c_str());
}

TEST(CliGoldenTest_Journal, BatchJournalsAreByteIdenticalAcrossJobs) {
  // With --batch, --journal=DIR writes one NAME.journal.jsonl per model;
  // the contents depend only on the task, never on scheduling, so the
  // files must be byte-identical across --jobs counts.
  const std::string dir1 = ::testing::TempDir() + "cli_golden_journal_j1";
  const std::string dir8 = ::testing::TempDir() + "cli_golden_journal_j8";
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir8);
  const CliRun jobs1 =
      run_cli("--batch " + models_dir() + " --jobs 1 --journal=" + dir1);
  const CliRun jobs8 =
      run_cli("--batch " + models_dir() + " --jobs 8 --journal=" + dir8);
  EXPECT_EQ(jobs1.exit_code, 0);
  EXPECT_EQ(jobs8.exit_code, 0);
  std::size_t compared = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir1)) {
    const std::string name = entry.path().filename().string();
    const std::string a = read_file(entry.path().string());
    const std::string b = read_file(dir8 + "/" + name);
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name << " differs between --jobs 1 and --jobs 8";
    ++compared;
  }
  const auto count_files = [](const std::string& dir) {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++n;
    }
    return n;
  };
  EXPECT_GT(compared, 2u);  // quickstart, tmr, mutex_ring, ...
  EXPECT_EQ(compared, count_files(dir8));
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir8);
}

TEST(CliGoldenTest_Journal, ExplainWithBatchIsRejected) {
  const CliRun run = run_cli("--batch " + models_dir() + " --explain");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(CliGoldenTest_Journal, JournalDiffShowsCautiousPruningEarlier) {
  // The paper's contrast as a CLI round trip: repair mutex_ring with both
  // algorithms, diff the journals with lr_report --journal, and pin the
  // table showing cautious pruning strictly more transitions before the
  // Repair phase (lazy prunes none there).
  const std::string lazy_path = ::testing::TempDir() + "lr_mutex_lazy.jsonl";
  const std::string cautious_path =
      ::testing::TempDir() + "lr_mutex_cautious.jsonl";
  const CliRun lazy =
      run_cli(models_dir() + "/mutex_ring.lr --journal=" + lazy_path);
  EXPECT_EQ(lazy.exit_code, 0) << lazy.output;
  const CliRun cautious = run_cli(models_dir() +
                                  "/mutex_ring.lr --cautious --journal=" +
                                  cautious_path);
  // Cautious fails on mutex_ring (its closure discipline empties the
  // invariant) — nonzero exit, but the journal is still written.
  EXPECT_NE(cautious.exit_code, 0);
  const CliRun diff =
      run_command(lr_report_path() + " --journal " + lazy_path + " " +
                  cautious_path + " 2>/dev/null");
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
  std::string stable = diff.output;
  for (const std::string& path : {lazy_path, cautious_path}) {
    for (std::size_t at = stable.find(path); at != std::string::npos;
         at = stable.find(path)) {
      stable.replace(at, path.size(), "<journal>");
    }
  }
  expect_matches_golden(stable, "lr_report_journal_diff.golden");
  std::remove(lazy_path.c_str());
  std::remove(cautious_path.c_str());
}

}  // namespace
