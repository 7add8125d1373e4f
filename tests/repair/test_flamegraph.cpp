// Exact-conservation suite for the call-path profiler and its flamegraph
// export, run over every case study:
//
//  * the flat attribution table (buckets()) is exactly the call-path tree
//    rolled up by leaf span name — no counter is created or destroyed by
//    the re-bucketing;
//  * collapsed-stack line weights sum to the run's total work_steps under
//    every weight mode that is deterministic;
//  * profiling only observes: a profiled repair does the very work of an
//    unprofiled one (same op-cache lookups, created nodes and evictions)
//    and ends with the same per-process deltas.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/profile.hpp"
#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "program/distributed_program.hpp"
#include "repair/lazy.hpp"

namespace lr::repair {
namespace {

using bdd::profile::OpClass;
using ProgramFactory =
    std::function<std::unique_ptr<prog::DistributedProgram>()>;

/// What a repair leaves behind that profiling must not change.
struct Work {
  std::uint64_t cache_lookups = 0;
  std::uint64_t created_nodes = 0;
  std::uint64_t cache_evictions = 0;
  std::vector<std::size_t> delta_nodes;    ///< node_count per δ_j
  std::vector<double> delta_transitions;  ///< count_transitions per δ_j
};

Work work_of(prog::DistributedProgram& program, const RepairResult& result) {
  const bdd::ManagerStats stats = program.space().manager().stats();
  Work work{stats.cache_lookups, stats.created_nodes, stats.cache_evictions,
            {}, {}};
  for (const bdd::Bdd& delta : result.process_deltas) {
    work.delta_nodes.push_back(delta.node_count());
    work.delta_transitions.push_back(program.space().count_transitions(delta));
  }
  return work;
}

Work run_unprofiled(const ProgramFactory& make) {
  std::unique_ptr<prog::DistributedProgram> program = make();
  const RepairResult result = lazy_repair(*program, Options{});
  return work_of(*program, result);
}

struct ProfileRun {
  bool success = false;
  Work work;
  bdd::profile::SpanCounters totals;
  bdd::profile::SpanCounters flat_sum;
  bdd::profile::SpanCounters tree_sum;
  std::string collapsed_steps;
  std::string collapsed_nodes;
};

ProfileRun run_profiled(const ProgramFactory& make) {
  bdd::profile::set_enabled(true);
  std::unique_ptr<prog::DistributedProgram> program = make();
  const RepairResult result = lazy_repair(*program, Options{});

  const bdd::profile::Profiler& prof = program->space().manager().profiler();
  ProfileRun run;
  run.success = result.success;
  run.totals = prof.totals();
  for (const auto& [name, counters] : prof.buckets()) {
    run.flat_sum.accumulate(counters);
  }
  for (const bdd::profile::Profiler::PathNode& node : prof.path_nodes()) {
    run.tree_sum.accumulate(node.counters);
  }
  run.collapsed_steps =
      bdd::profile::to_collapsed(prof, bdd::profile::FlameWeight::kSteps);
  run.collapsed_nodes =
      bdd::profile::to_collapsed(prof, bdd::profile::FlameWeight::kNodes);
  bdd::profile::set_enabled(false);
  run.work = work_of(*program, result);
  return run;
}

std::uint64_t sum_collapsed_weights(const std::string& collapsed) {
  std::uint64_t sum = 0;
  std::istringstream lines(collapsed);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t split = line.rfind(' ');
    EXPECT_NE(split, std::string::npos) << line;
    if (split == std::string::npos) continue;
    sum += std::stoull(line.substr(split + 1));
  }
  return sum;
}

void expect_counters_equal(const bdd::profile::SpanCounters& a,
                           const bdd::profile::SpanCounters& b,
                           const std::string& what) {
  for (unsigned c = 0; c < bdd::profile::kOpClassCount; ++c) {
    const auto op = static_cast<OpClass>(c);
    EXPECT_EQ(a.op(op).calls, b.op(op).calls)
        << what << ": " << bdd::profile::op_class_name(op) << " calls";
    EXPECT_EQ(a.op(op).steps, b.op(op).steps)
        << what << ": " << bdd::profile::op_class_name(op) << " steps";
  }
  EXPECT_EQ(a.created_nodes, b.created_nodes) << what;
  EXPECT_EQ(a.unique_hits, b.unique_hits) << what;
  EXPECT_EQ(a.cache_lookups, b.cache_lookups) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.gc_runs, b.gc_runs) << what;
  EXPECT_EQ(a.gc_reclaimed, b.gc_reclaimed) << what;
}

void expect_conservation(const char* name, const ProgramFactory& make) {
  const ProfileRun seq = run_profiled(make);
  EXPECT_TRUE(seq.success) << name;
  EXPECT_GT(seq.totals.work_steps(), 0u) << name;

  // Flat table == tree rollup == totals, counter for counter.
  expect_counters_equal(seq.flat_sum, seq.totals,
                        std::string(name) + " flat vs totals");
  expect_counters_equal(seq.tree_sum, seq.totals,
                        std::string(name) + " tree vs totals");

  // Collapsed self-weights sum exactly to the flat table's totals.
  EXPECT_EQ(sum_collapsed_weights(seq.collapsed_steps),
            seq.totals.work_steps())
      << name;
  EXPECT_EQ(sum_collapsed_weights(seq.collapsed_nodes),
            seq.totals.created_nodes)
      << name;

  // The profile describes the plan an unprofiled run executes: turning
  // the profiler on changes no BDD operation.
  const Work plain = run_unprofiled(make);
  EXPECT_EQ(seq.work.cache_lookups, plain.cache_lookups) << name;
  EXPECT_EQ(seq.work.created_nodes, plain.created_nodes) << name;
  EXPECT_EQ(seq.work.cache_evictions, plain.cache_evictions) << name;
  EXPECT_EQ(seq.work.delta_nodes, plain.delta_nodes) << name;
  EXPECT_EQ(seq.work.delta_transitions, plain.delta_transitions) << name;
}

TEST(FlamegraphConservationTest, Tmr) {
  expect_conservation("tmr", [] { return cs::make_tmr({}); });
}

TEST(FlamegraphConservationTest, TokenRing) {
  expect_conservation("token_ring", [] { return cs::make_token_ring({}); });
}

TEST(FlamegraphConservationTest, Byzantine) {
  expect_conservation("byzantine", [] { return cs::make_byzantine({}); });
}

TEST(FlamegraphConservationTest, Chain) {
  cs::ChainOptions chain;
  chain.length = 8;
  expect_conservation("Sc^8", [chain] { return cs::make_chain(chain); });
}

}  // namespace
}  // namespace lr::repair
