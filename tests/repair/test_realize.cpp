// Unit tests for Step 2 (Algorithm 2): the one-∀-per-process closure of
// `realize`, and a differential test against the paper's
// one-group-at-a-time loop (tests/support/group_loops.hpp).
//
// Environment knobs (fuzz sweep of the differential test):
//   LR_FUZZ_SEED=N     base seed (model i uses seed N+i); default 20160523
//   LR_FUZZ_MODELS=N   models per topology x fault class; default 64

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bdd/profile.hpp"
#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/parser.hpp"
#include "repair/add_masking.hpp"
#include "repair/journal.hpp"
#include "repair/realize.hpp"
#include "support/rng.hpp"
#include "symbolic/relation.hpp"
#include "../support/group_loops.hpp"
#include "../support/model_gen.hpp"

namespace lr::repair {
namespace {

using testgen::GroupLoopResult;
using testgen::realize_group_loop;

/// Step 1's outputs that Step 2 takes: δ' and the tolerance set (the reach
/// of δ' ∪ f from S').
struct StepTwoInput {
  bool ok = false;
  bdd::Bdd delta;
  bdd::Bdd tolerance;
};

StepTwoInput step_two_input(prog::DistributedProgram& p,
                            const Options& options = {}) {
  Stats stats;
  const StepOneResult step1 = add_masking(
      p, p.invariant(), p.space().bdd_false(), bdd::Bdd(), options, stats);
  StepTwoInput out;
  if (!step1.success) return out;
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p.fault_action_deltas()) parts.push_back(f);
  out.ok = true;
  out.delta = step1.delta;
  out.tolerance = p.space().forward_reachable(
      sym::TransitionRelation::partitioned(p.space(), parts),
      step1.invariant);
  return out;
}

/// Runs Step 1 + Step 2 and returns the per-process deltas along with the
/// tolerance set used.
struct Realized {
  std::vector<bdd::Bdd> deltas;
  bdd::Bdd tolerance;
  bdd::Bdd step1_delta;
};

Realized realize_case(prog::DistributedProgram& p) {
  const StepTwoInput input = step_two_input(p);
  EXPECT_TRUE(input.ok);
  Realized out;
  out.tolerance = input.tolerance;
  out.step1_delta = input.delta;
  Options options;
  Stats stats;
  out.deltas = realize(p, input.delta, input.tolerance, options, stats);
  return out;
}

TEST(RealizeTest, OutputIsRealizableByEachProcess) {
  auto p = cs::make_byzantine({.non_generals = 3});
  const Realized r = realize_case(*p);
  for (std::size_t j = 0; j < p->process_count(); ++j) {
    EXPECT_TRUE(p->realizable_by_process(j, r.deltas[j])) << "process " << j;
    EXPECT_TRUE(r.deltas[j].disjoint(p->space().identity()));
  }
}

TEST(RealizeTest, PaperLoopAndOneShotAgreeInsideTolerance) {
  // The paper's loop, with ExpandGroup, keeps the same groups as the one
  // ∀ inside the tolerance set; outside it a widening may absorb extra
  // don't-care groups, which `realize` leaves out.
  auto p = cs::make_byzantine({.non_generals = 3});
  const Realized r = realize_case(*p);
  const GroupLoopResult loop =
      realize_group_loop(*p, r.step1_delta, r.tolerance, /*expand=*/true);
  ASSERT_EQ(loop.deltas.size(), r.deltas.size());
  for (std::size_t j = 0; j < r.deltas.size(); ++j) {
    EXPECT_TRUE((loop.deltas[j] & r.tolerance) == (r.deltas[j] & r.tolerance))
        << "process " << j;
    EXPECT_TRUE(r.deltas[j].leq(loop.deltas[j])) << "process " << j;
  }
  EXPECT_GT(loop.rejections + loop.expand_successes, 0u);
}

TEST(RealizeTest, ExpandGroupDoesNotChangeTheResult) {
  // ExpandGroup only merges the loop's iterations: inside the tolerance set
  // the loop keeps the same groups with it and without it.
  auto p = cs::make_byzantine({.non_generals = 3});
  const Realized r = realize_case(*p);
  const GroupLoopResult with =
      realize_group_loop(*p, r.step1_delta, r.tolerance, true);
  const GroupLoopResult without =
      realize_group_loop(*p, r.step1_delta, r.tolerance, false);
  for (std::size_t j = 0; j < with.deltas.size(); ++j) {
    EXPECT_TRUE((with.deltas[j] & r.tolerance) ==
                (without.deltas[j] & r.tolerance))
        << "process " << j;
  }
  EXPECT_GT(with.expand_successes, 0u);
  EXPECT_EQ(without.expand_successes + without.expand_failures, 0u);
  EXPECT_LT(with.iterations, without.iterations);
}

TEST(RealizeTest, KeepsOriginalRealizableBehavior) {
  // The chain's propagation actions are realizable and inside δ'; they must
  // survive realization wherever the tolerance retains them.
  auto p = cs::make_chain({.length = 3, .domain = 3});
  const Realized r = realize_case(*p);
  for (std::size_t j = 0; j < p->process_count(); ++j) {
    const bdd::Bdd original = p->process_delta(j) & r.tolerance;
    EXPECT_TRUE(original.leq(r.deltas[j])) << "process " << j;
  }
}

TEST(RealizeTest, UnionOfDeltasWithinStepOneDeltaInsideTolerance) {
  // Inside the tolerance set, realization only removes behavior.
  auto p = cs::make_token_ring({.processes = 3, .domain = 3});
  Options options;
  Stats stats;
  const StepOneResult step1 =
      add_masking(*p, p->invariant(), p->space().bdd_false(), bdd::Bdd(),
                  options, stats);
  ASSERT_TRUE(step1.success);
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p->fault_action_deltas()) parts.push_back(f);
  const bdd::Bdd tolerance = p->space().forward_reachable(
      sym::TransitionRelation::partitioned(p->space(), parts),
      step1.invariant);
  const auto deltas = realize(*p, step1.delta, tolerance, options, stats);
  for (const bdd::Bdd& dj : deltas) {
    EXPECT_TRUE((dj & tolerance).leq(step1.delta));
  }
}

std::string model_path(const std::string& name) {
  return std::string(LR_SOURCE_DIR) + "/models/" + name;
}

// --- Differential test: the ∀ form against Algorithm 2's loop ---------------

/// Runs Step 1 on `p` at `level`, then `realize` beside Algorithm 2's loop,
/// with ExpandGroup on and off. Without ExpandGroup the loop keeps exactly
/// `realize`'s groups; with it, the loop's groups that carry span behavior
/// are `realize`'s. `realize` journals one accepted group per process.
/// Returns false when Step 1 fails (nothing to compare); adds the loop's
/// rejected groups to `rejections`.
bool expect_realize_matches_group_loop(prog::DistributedProgram& p,
                                       const std::string& what,
                                       ToleranceLevel level,
                                       std::size_t& rejections) {
  Options options;
  options.level = level;
  const StepTwoInput input = step_two_input(p, options);
  if (!input.ok) return false;

  Journal journal;
  journal.begin_run(p, "lazy", tolerance_level_name(level));
  options.journal = &journal;
  Stats stats;
  const std::vector<bdd::Bdd> deltas =
      realize(p, input.delta, input.tolerance, options, stats);
  EXPECT_EQ(stats.group_iterations, 0u) << what;

  for (const bool expand : {true, false}) {
    const GroupLoopResult loop =
        realize_group_loop(p, input.delta, input.tolerance, expand);
    if (!expand) rejections += loop.rejections;
    const std::string config = what + (expand ? " expand" : " no-expand");
    if (deltas.size() != loop.deltas.size()) {
      ADD_FAILURE() << config << ": " << deltas.size()
                    << " deltas, group loop " << loop.deltas.size();
      return true;
    }
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const bdd::Bdd expected =
          expand ? p.group(j, loop.deltas[j] & input.tolerance)
                 : loop.deltas[j];
      EXPECT_TRUE(deltas[j] == expected)
          << config << ": process " << j << " delta differs";
      EXPECT_TRUE(deltas[j].leq(loop.deltas[j])) << config << ": process "
                                                 << j;
    }
  }

  using Accepted = std::tuple<std::size_t, double, std::size_t>;
  std::vector<Accepted> journaled;
  for (const JournalEvent& event : journal.events()) {
    if (event.kind != "group") continue;
    EXPECT_EQ(event.text.at("decision"), "accepted") << what;
    journaled.emplace_back(static_cast<std::size_t>(event.num.at("process")),
                           event.num.at("trans"),
                           static_cast<std::size_t>(event.num.at("nodes")));
  }
  std::vector<Accepted> expected;
  for (std::size_t j = 0; j < deltas.size(); ++j) {
    expected.emplace_back(j, p.space().count_transitions(deltas[j]),
                          deltas[j].node_count());
  }
  EXPECT_EQ(journaled, expected) << what << ": accepted events";
  return true;
}

TEST(RealizeBatchTest, CaseStudiesMatchOneGroupAtATime) {
  using Factory = std::function<std::unique_ptr<prog::DistributedProgram>()>;
  std::vector<std::pair<std::string, Factory>> cases = {
      {"tmr", [] { return cs::make_tmr({}); }},
      {"token_ring", [] { return cs::make_token_ring({}); }},
      {"BA^3", [] { return cs::make_byzantine({.non_generals = 3}); }},
      {"BAFS^3",
       [] { return cs::make_byzantine({.non_generals = 3, .fail_stop = true}); }},
      {"Sc^5 d3", [] { return cs::make_chain({.length = 5, .domain = 3}); }},
      {"Sc^4 d8", [] { return cs::make_chain({.length = 4, .domain = 8}); }},
  };
  for (const auto& entry :
       std::filesystem::directory_iterator(model_path(""))) {
    if (entry.path().extension() != ".lr") continue;
    const std::string path = entry.path().string();
    cases.emplace_back(entry.path().filename().string(),
                       [path] { return lang::parse_program_file(path); });
  }
  std::size_t rejections = 0;
  for (const auto& [name, make] : cases) {
    const std::unique_ptr<prog::DistributedProgram> p = make();
    EXPECT_TRUE(expect_realize_matches_group_loop(
        *p, name, ToleranceLevel::kMasking, rejections))
        << name << ": Step 1 failed";
  }
  // mutex_ring rejects groups, so the closure test was exercised.
  EXPECT_GT(rejections, 0u);
}

TEST(RealizeTest, ExpandGroupWidensAlongNonPowerOfTwoDomains) {
  // p reads y and ignores it, so ExpandGroup widens its one group along y
  // to every value of y. A 3-valued y has out-of-domain encodings, which
  // are never in the pool; the widening must not ask for them.
  for (const char* domain : {"0..2", "0..3"}) {
    auto p = lang::parse_program(std::string(R"(
      program expand_domain;
      var x : 0..1;
      var y : )") + domain + R"(;
      process p { reads x, y; writes x; action reset: x == 1 -> x := 0; }
      process q { reads y; writes y; }
      fault glitch: x == 0 -> x := 1;
      invariant x == 0;
    )");
    const StepTwoInput input = step_two_input(*p);
    ASSERT_TRUE(input.ok) << "y : " << domain;
    const GroupLoopResult loop =
        realize_group_loop(*p, input.delta, input.tolerance, true);
    EXPECT_EQ(loop.iterations, 1u) << "y : " << domain;
    EXPECT_EQ(loop.expand_successes, 1u) << "y : " << domain;
    EXPECT_EQ(loop.expand_failures, 0u) << "y : " << domain;
    std::size_t rejections = 0;
    EXPECT_TRUE(expect_realize_matches_group_loop(
        *p, std::string("y : ") + domain, ToleranceLevel::kMasking,
        rejections));
  }
}

// Lazy repair's use of the local livelock proof (find_livelock_certificate)
// relies on every δ_j changing only writes_j. Algorithm 2 ensures it; this pins it down.
TEST(RealizeTest, CaseStudyDeltasChangeOnlyTheirWrites) {
  using Factory = std::function<std::unique_ptr<prog::DistributedProgram>()>;
  const auto model_file = [](const char* name) -> Factory {
    return [name] { return lang::parse_program_file(model_path(name)); };
  };
  const std::vector<std::pair<std::string, Factory>> cases = {
      {"tmr", [] { return cs::make_tmr({}); }},
      {"token_ring", [] { return cs::make_token_ring({}); }},
      {"byzantine", [] { return cs::make_byzantine({}); }},
      {"byzantine fail-stop",
       [] { return cs::make_byzantine({.fail_stop = true}); }},
      {"Sc^5 d3", [] { return cs::make_chain({.length = 5, .domain = 3}); }},
      {"mutex_ring", model_file("mutex_ring.lr")},
      {"quickstart", model_file("quickstart.lr")},
  };
  for (const auto& [name, make] : cases) {
    const std::unique_ptr<prog::DistributedProgram> p = make();
    const Realized r = realize_case(*p);
    ASSERT_EQ(r.deltas.size(), p->process_count()) << name;
    for (std::size_t j = 0; j < r.deltas.size(); ++j) {
      EXPECT_TRUE(r.deltas[j].leq(p->respects_write(j)))
          << name << " process " << j;
    }
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

TEST(RealizeBatchTest, RandomModelsMatchOneGroupAtATime) {
  const std::uint64_t base = env_u64("LR_FUZZ_SEED", 20160523ull);
  const std::size_t per_shard =
      static_cast<std::size_t>(env_u64("LR_FUZZ_MODELS", 64));
  std::size_t compared = 0;
  std::size_t rejections = 0;
  for (const char* topology : {"random", "ring", "tree", "star"}) {
    for (const char* faults : {"havoc", "corrupt"}) {
      ::setenv("LR_FUZZ_TOPOLOGY", topology, 1);
      ::setenv("LR_FUZZ_FAULTS", faults, 1);
      for (std::size_t i = 0; i < per_shard; ++i) {
        const std::uint64_t seed = testgen::model_seed(base, i);
        for (const ToleranceLevel level :
             {ToleranceLevel::kMasking, ToleranceLevel::kFailsafe,
              ToleranceLevel::kNonmasking}) {
          support::SplitMix64 rng(seed);
          const std::unique_ptr<prog::DistributedProgram> p =
              testgen::random_program(rng);
          const std::string what = std::string(topology) + "/" + faults +
                                   " seed " + std::to_string(seed) + " " +
                                   tolerance_level_name(level);
          if (expect_realize_matches_group_loop(*p, what, level,
                                                rejections)) {
            ++compared;
          }
          if (::testing::Test::HasFailure()) {
            std::fprintf(stderr,
                         "[fuzz] repro: LR_FUZZ_SEED=%llu LR_FUZZ_MODELS=1 "
                         "./test_realize --gtest_filter='*RandomModels*' "
                         "(mismatch under %s/%s)\n",
                         static_cast<unsigned long long>(seed), topology,
                         faults);
            ::unsetenv("LR_FUZZ_TOPOLOGY");
            ::unsetenv("LR_FUZZ_FAULTS");
            return;
          }
        }
      }
    }
  }
  ::unsetenv("LR_FUZZ_TOPOLOGY");
  ::unsetenv("LR_FUZZ_FAULTS");
  // A sweep where Step 1 never succeeds, or nothing is ever rejected,
  // compares nothing interesting.
  EXPECT_GT(compared, 3 * per_shard);
  EXPECT_GT(rejections, 0u);
}

TEST(RealizeTest, JournalsOneGroupEventPerProcess) {
  // mutex_ring drops groups to the closure test: `realize` journals one
  // accepted group per process and the dropped span behavior as one
  // closure prune, and counts no loop iterations.
  auto p = lang::parse_program_file(model_path("mutex_ring.lr"));
  const StepTwoInput input = step_two_input(*p);
  ASSERT_TRUE(input.ok);
  Journal journal;
  journal.begin_run(*p, "lazy", "masking");
  Options options;
  options.journal = &journal;
  Stats stats;
  (void)realize(*p, input.delta, input.tolerance, options, stats);
  std::size_t groups = 0;
  std::size_t closure_prunes = 0;
  for (const JournalEvent& event : journal.events()) {
    if (event.kind == "group") ++groups;
    if (event.kind == "prune" && event.text.at("reason") == "closure") {
      ++closure_prunes;
    }
  }
  EXPECT_EQ(groups, p->process_count());
  EXPECT_GT(closure_prunes, 0u) << "mutex_ring must exercise a rejection";
  EXPECT_EQ(stats.group_iterations, 0u);
}

TEST(RealizeTest, ProfilingDoesNotChangeThePlan) {
  // Profiling only observes: realize must run the same loop, op for op,
  // with the profiler on.
  struct Run {
    std::vector<std::pair<double, std::size_t>> deltas;  // (trans, nodes)
    std::uint64_t lookups = 0;
  };
  const auto run = [](bool profiled) {
    auto p = lang::parse_program_file(model_path("mutex_ring.lr"));
    Options options;
    Stats stats;
    const StepOneResult step1 =
        add_masking(*p, p->invariant(), p->space().bdd_false(), bdd::Bdd(),
                    options, stats);
    EXPECT_TRUE(step1.success);
    std::vector<bdd::Bdd> parts{step1.delta};
    for (const bdd::Bdd& f : p->fault_action_deltas()) parts.push_back(f);
    const bdd::Bdd tolerance = p->space().forward_reachable(
        sym::TransitionRelation::partitioned(p->space(), parts),
        step1.invariant);
    bdd::profile::set_enabled(profiled);
    bdd::Manager& mgr = p->space().manager();
    const std::uint64_t before = mgr.stats().cache_lookups;
    const std::vector<bdd::Bdd> deltas =
        realize(*p, step1.delta, tolerance, options, stats);
    Run out;
    out.lookups = mgr.stats().cache_lookups - before;
    bdd::profile::set_enabled(false);
    for (const bdd::Bdd& d : deltas) {
      out.deltas.emplace_back(p->space().count_transitions(d),
                              d.node_count());
    }
    return out;
  };
  const Run plain = run(false);
  const Run profiled = run(true);
  EXPECT_GT(plain.lookups, 0u);
  EXPECT_EQ(profiled.lookups, plain.lookups);
  EXPECT_EQ(profiled.deltas, plain.deltas);
}

}  // namespace
}  // namespace lr::repair
