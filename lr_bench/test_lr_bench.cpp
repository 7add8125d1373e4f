// Checks of the benchmark itself, run on tiny instance lists through the
// same library code the lr_bench program uses.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "support/fs.hpp"
#include "support/json.hpp"
#include "table_specs.hpp"
#include "workload.hpp"

namespace lr::bench {
namespace {

const std::string kRepo = LR_BENCH_REPO_DIR;

/// tmr and quickstart from their model files, and Sc^10 (group loop).
Workload tiny_workload() {
  Workload workload;
  workload.name = "tiny";
  workload.deadline_s = 60.0;
  workload.instances = {
      model_file_instance(kRepo + "/models/tmr.lr"),
      model_file_instance(kRepo + "/models/quickstart.lr"),
      table_instance(chain_task(10, repair::GroupMethod::kPaperLoop))};
  return workload;
}

Workload sc10_and_random_models(std::uint64_t seed) {
  Workload workload;
  workload.name = "slice";
  workload.deadline_s = 60.0;
  workload.instances = random_models(seed, 200);
  workload.instances.push_back(
      table_instance(chain_task(10, repair::GroupMethod::kPaperLoop)));
  return workload;
}

void expect_same_counters(const bdd::profile::SpanCounters& sum,
                          const bdd::profile::SpanCounters& total,
                          const std::string& where) {
  for (std::size_t op = 0; op < bdd::profile::kOpClassCount; ++op) {
    EXPECT_EQ(sum.ops[op].calls, total.ops[op].calls) << where << " op " << op;
    EXPECT_EQ(sum.ops[op].steps, total.ops[op].steps) << where << " op " << op;
    EXPECT_NEAR(sum.ops[op].seconds, total.ops[op].seconds,
                1e-9 + 1e-9 * total.ops[op].seconds)
        << where << " op " << op;
  }
  EXPECT_EQ(sum.created_nodes, total.created_nodes) << where;
  EXPECT_EQ(sum.unique_hits, total.unique_hits) << where;
  EXPECT_EQ(sum.cache_lookups, total.cache_lookups) << where;
  EXPECT_EQ(sum.cache_hits, total.cache_hits) << where;
  EXPECT_EQ(sum.gc_runs, total.gc_runs) << where;
  EXPECT_EQ(sum.gc_reclaimed, total.gc_reclaimed) << where;
}

TEST(LrBench, LayerRollupSumsToProfilerTotals) {
  const RoundResult round = run_round(tiny_workload(), /*traced=*/true);
  ASSERT_EQ(round.instances.size(), 3u);
  for (const InstanceResult& result : round.instances) {
    ASSERT_TRUE(result.solved) << result.name << ": " << result.failure;
    EXPECT_TRUE(result.rejection.empty()) << result.rejection;
    ASSERT_NE(result.profile, nullptr);
    const Rollup& rollup = result.profile->rollup;
    const bdd::profile::SpanCounters& totals = result.profile->totals;
    EXPECT_GT(totals.work_steps(), 0u) << result.name;
    bdd::profile::SpanCounters sum;
    for (const bdd::profile::SpanCounters& layer : rollup.layers) {
      sum.accumulate(layer);
    }
    expect_same_counters(sum, totals, result.name);
    // The repair, verify and export phase spans all carry work.
    EXPECT_GT(rollup[Layer::kVerify].work_steps(), 0u) << result.name;
    EXPECT_GT(rollup[Layer::kExport].work_steps(), 0u) << result.name;
    EXPECT_LT(rollup[Layer::kUnattributed].work_steps(), totals.work_steps())
        << result.name;
  }
}

TEST(LrBench, PhasesCoverTotalTime) {
  const RoundResult round = run_round(tiny_workload(), /*traced=*/false);
  const double phases =
      round.setup_s + round.repair_s + round.verify_s + round.export_s;
  EXPECT_GE(phases, 0.97 * round.total_s)
      << "setup " << round.setup_s << " repair " << round.repair_s
      << " verify " << round.verify_s << " export " << round.export_s
      << " total " << round.total_s;
  EXPECT_LE(phases, round.total_s);
}

std::vector<MetricSpec> specs_of(const support::JsonValue& list) {
  std::vector<MetricSpec> specs;
  for (const support::JsonValue& entry : list.array) {
    specs.push_back({entry.find("name")->string, entry.find("unit")->string});
  }
  return specs;
}

TEST(LrBench, PrintedMetricsMatchBenchmarkJson) {
  const std::optional<std::string> text =
      support::read_file(kRepo + "/BENCHMARK.json");
  ASSERT_TRUE(text.has_value());
  const std::optional<support::JsonValue> doc = support::json_parse(*text);
  ASSERT_TRUE(doc.has_value() && doc->is_object());

  const auto same = [](const std::vector<MetricSpec>& a,
                       const std::vector<MetricSpec>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].name != b[i].name || a[i].unit != b[i].unit) return false;
    }
    return true;
  };
  EXPECT_TRUE(same(specs_of(*doc->find("end_to_end")), end_to_end_metrics()));
  EXPECT_TRUE(same(specs_of(*doc->find("per_layer")), per_layer_metrics()));

  std::vector<std::string> workloads;
  for (const support::JsonValue& entry : doc->find("workloads")->array) {
    workloads.push_back(entry.find("name")->string);
  }
  EXPECT_EQ(workloads, workload_names());

  // The traced result prints the untraced rounds' counter_metrics(), the
  // traced rounds' profile_metrics() and trace.overhead.
  const RoundResult round = run_round(tiny_workload(), /*traced=*/true);
  std::set<std::string> printed{"trace.overhead"};
  for (const auto& [name, value] : round.counter_metrics()) {
    EXPECT_TRUE(printed.insert(name).second) << name;
  }
  for (const auto& [name, value] : round.profile_metrics()) {
    EXPECT_TRUE(printed.insert(name).second) << name;
  }
  std::set<std::string> declared;
  for (const MetricSpec& spec : per_layer_metrics()) declared.insert(spec.name);
  EXPECT_EQ(printed, declared);
}

TEST(LrBench, TracedRoundsRepeatExactly) {
  const Workload workload = sc10_and_random_models(11);
  const RoundResult a = run_round(workload, /*traced=*/true);
  const RoundResult b = run_round(workload, /*traced=*/true);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_TRUE(a.same_work(b));
  EXPECT_EQ(a.solved_frac(), b.solved_frac());
  EXPECT_EQ(a.invariant_log2(), b.invariant_log2());
  const std::map<std::string, double> pa = a.profile_metrics();
  const std::map<std::string, double> pb = b.profile_metrics();
  for (const char* key :
       {"bdd.work_steps", "repair.lazy.livelock_iterations",
        "repair.lazy.livelock_steps", "repair.realize.steps",
        "repair.add_masking.steps"}) {
    EXPECT_EQ(pa.at(key), pb.at(key)) << key;
  }
  EXPECT_GT(pa.at("repair.lazy.livelock_iterations"), 0.0);
  const std::map<std::string, double> ca = a.counter_metrics();
  const std::map<std::string, double> cb = b.counter_metrics();
  for (const char* key : {"bdd.created_nodes", "bdd.cache_evictions",
                          "repair.realize.group_iterations"}) {
    EXPECT_EQ(ca.at(key), cb.at(key)) << key;
  }
}

TEST(LrBench, UntracedRoundsRepeatExactly) {
  // The end-to-end step counts and the ledger's Stats and ManagerStats
  // counts come from untraced rounds.
  const Workload workload = sc10_and_random_models(11);
  const RoundResult a = run_round(workload, /*traced=*/false);
  const RoundResult b = run_round(workload, /*traced=*/false);
  EXPECT_TRUE(a.same_work(b));
  EXPECT_EQ(a.repair_steps, b.repair_steps);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_GT(a.repair_steps, 0u);
  EXPECT_GT(a.total_steps, a.repair_steps);
  const std::map<std::string, double> ca = a.counter_metrics();
  const std::map<std::string, double> cb = b.counter_metrics();
  for (const char* key :
       {"bdd.cache_lookups", "bdd.created_nodes", "bdd.cache_evictions",
        "bdd.peak_nodes", "repair.lazy.outer_iterations",
        "repair.realize.group_iterations"}) {
    EXPECT_EQ(ca.at(key), cb.at(key)) << key;
  }
  EXPECT_GT(ca.at("bdd.cache_lookups"), 0.0);
  for (const auto& [key, value] : a.profile_metrics()) {
    EXPECT_EQ(value, 0.0) << key;
  }
}

TEST(LrBench, SeedDrawsTheModelList) {
  const auto fingerprint = [](std::uint64_t seed) {
    std::vector<double> sizes;
    for (const Instance& instance : random_models(seed, 200)) {
      sizes.push_back(instance.task.make_program()->space().state_space_size());
    }
    return sizes;
  };
  EXPECT_EQ(fingerprint(5), fingerprint(5));
  EXPECT_NE(fingerprint(5), fingerprint(6));
}

TEST(LrBench, EveryWorkloadBuilds) {
  for (const std::string& name : workload_names()) {
    EXPECT_FALSE(make_workload(name, 1).instances.empty()) << name;
  }
  EXPECT_THROW((void)make_workload("no-such-workload", 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace lr::bench
