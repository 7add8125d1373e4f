// Static variable-order differential suite: every --order mode must leave
// the *results* of a repair untouched — same invariant, same fault span,
// byte-identical exported model — because the order only changes how the
// fixpoints are computed, never what they compute. Also covers the
// heuristic planner itself (plan_order) and pins that a repair ends under
// the order it planned.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/parser.hpp"
#include "repair/cautious.hpp"
#include "repair/export.hpp"
#include "repair/lazy.hpp"
#include "repair/order_setup.hpp"
#include "repair/verify.hpp"
#include "../support/model_gen.hpp"
#include "symbolic/order_heur.hpp"

namespace lr::repair {
namespace {

using Factory = std::function<std::unique_ptr<prog::DistributedProgram>()>;

constexpr sym::order::Mode kHeuristicModes[] = {
    sym::order::Mode::kDecl,
    sym::order::Mode::kAuto,
    sym::order::Mode::kInterleave,
    sym::order::Mode::kAdjacency,
};

/// Repairs `make()` under every heuristic mode and checks that invariant /
/// span state counts and the exported model agree with the kDecl baseline.
void expect_modes_agree(const Factory& make, bool cautious = false) {
  std::string baseline_export;
  double baseline_invariant = 0.0;
  double baseline_span = 0.0;
  bool baseline_success = false;
  for (const sym::order::Mode mode : kHeuristicModes) {
    auto program = make();
    Options options;
    options.order_mode = mode;
    const RepairResult result = cautious ? cautious_repair(*program, options)
                                         : lazy_repair(*program, options);
    const char* name = sym::order::mode_name(mode);
    if (mode == sym::order::Mode::kDecl) {
      baseline_success = result.success;
      if (result.success) {
        baseline_invariant = program->space().count_states(result.invariant);
        baseline_span = program->space().count_states(result.fault_span);
        baseline_export = export_model(*program, result);
        EXPECT_TRUE(verify_masking(*program, result).ok);
      }
      continue;
    }
    EXPECT_EQ(result.success, baseline_success) << name;
    if (!result.success || !baseline_success) continue;
    EXPECT_DOUBLE_EQ(program->space().count_states(result.invariant),
                     baseline_invariant)
        << name;
    EXPECT_DOUBLE_EQ(program->space().count_states(result.fault_span),
                     baseline_span)
        << name;
    EXPECT_TRUE(verify_masking(*program, result).ok) << name;
    EXPECT_EQ(export_model(*program, result), baseline_export)
        << "export not byte-identical under --order=" << name;
  }
}

TEST(OrderModesTest, ChainExportsAreByteIdenticalAcrossModes) {
  expect_modes_agree([] { return cs::make_chain({.length = 4, .domain = 3}); });
}

TEST(OrderModesTest, ByzantineExportsAreByteIdenticalAcrossModes) {
  expect_modes_agree([] { return cs::make_byzantine({.non_generals = 3}); });
}

TEST(OrderModesTest, TokenRingExportsAreByteIdenticalAcrossModes) {
  expect_modes_agree(
      [] { return cs::make_token_ring({.processes = 3, .domain = 3}); });
}

TEST(OrderModesTest, CautiousChainExportsAreByteIdenticalAcrossModes) {
  expect_modes_agree([] { return cs::make_chain({.length = 3, .domain = 3}); },
                     /*cautious=*/true);
}

TEST(OrderModesTest, FuzzShardExportsAreByteIdenticalAcrossModes) {
  // Seeded differential sweep over random models: same contract as the
  // case studies, across all heuristic modes. LR_FUZZ_SEED reproduces.
  std::uint64_t base_seed = 20260808;
  if (const char* env = std::getenv("LR_FUZZ_SEED")) {
    base_seed = std::strtoull(env, nullptr, 10);
  }
  constexpr std::uint64_t kModels = 12;
  for (std::uint64_t index = 0; index < kModels; ++index) {
    const std::uint64_t seed = testgen::model_seed(base_seed, index);
    SCOPED_TRACE("LR_FUZZ_SEED=" + std::to_string(seed));
    expect_modes_agree([seed] {
      support::SplitMix64 rng(seed);
      return testgen::random_program(rng);
    });
  }
}

TEST(OrderModesTest, PlanOrderProducesAPermutationPerMode) {
  auto program = cs::make_chain({.length = 4, .domain = 4});
  const sym::order::Structure structure = program->order_structure();
  for (const sym::order::Mode mode : kHeuristicModes) {
    const sym::order::Plan plan =
        sym::order::plan_order(program->space(), structure, mode);
    EXPECT_EQ(plan.requested, mode);
    const std::size_t bits = 2 * program->space().bits_per_state();
    ASSERT_EQ(plan.var_at_level.size(), bits);
    std::vector<bool> seen(bits, false);
    for (const bdd::VarIndex v : plan.var_at_level) {
      ASSERT_LT(v, bits);
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
    // cur/next interleaving is preserved: each variable's bits stay in
    // cur,next,cur,next order and contiguous.
    for (sym::VarId var = 0; var < program->space().variable_count(); ++var) {
      const sym::VariableInfo& info = program->space().info(var);
      std::vector<bdd::VarIndex> expected;
      for (std::uint32_t k = 0; k < info.bits; ++k) {
        expected.push_back(info.cur_bits[k]);
        expected.push_back(info.next_bits[k]);
      }
      std::vector<bdd::VarIndex> found;
      for (const bdd::VarIndex v : plan.var_at_level) {
        for (const bdd::VarIndex e : expected) {
          if (v == e) found.push_back(v);
        }
      }
      EXPECT_EQ(found, expected)
          << "bits of variable " << info.name << " not contiguous/interleaved"
          << " under mode " << sym::order::mode_name(mode);
    }
  }
}

TEST(OrderModesTest, AutoNeverBeatsItsOwnCandidates) {
  auto program = cs::make_token_ring({.processes = 4, .domain = 3});
  const sym::order::Structure structure = program->order_structure();
  const sym::order::Plan auto_plan = sym::order::plan_order(
      program->space(), structure, sym::order::Mode::kAuto);
  EXPECT_EQ(auto_plan.requested, sym::order::Mode::kAuto);
  // The chosen span cost is the minimum over all candidates (<= decl).
  EXPECT_LE(auto_plan.span_cost, auto_plan.decl_span_cost);
  for (const sym::order::Mode mode :
       {sym::order::Mode::kInterleave, sym::order::Mode::kAdjacency}) {
    const sym::order::Plan candidate =
        sym::order::plan_order(program->space(), structure, mode);
    EXPECT_LE(auto_plan.span_cost, candidate.span_cost)
        << sym::order::mode_name(mode);
  }
}

TEST(OrderModesTest, ApplyOrderOptionsIsIdempotent) {
  auto program = cs::make_chain({.length = 3, .domain = 3});
  Options options;
  options.order_mode = sym::order::Mode::kInterleave;
  apply_order_options(*program, options);
  std::vector<bdd::VarIndex> first;
  bdd::Manager& mgr = program->space().manager();
  for (std::uint32_t l = 0; l < mgr.var_count(); ++l) {
    first.push_back(mgr.var_at_level(l));
  }
  apply_order_options(*program, options);
  for (std::uint32_t l = 0; l < mgr.var_count(); ++l) {
    EXPECT_EQ(mgr.var_at_level(l), first[l]) << "level " << l;
  }
}

TEST(OrderModesTest, RepairLeavesThePlannedOrderInPlace) {
  // Nothing reorders during a repair: the levels a run ends with are the
  // levels plan_order computes from the parsed model, so the plan is the
  // one source of the order and an end-of-run order holds nothing new.
  const std::vector<std::pair<std::string, Factory>> models = {
      {"chain-4", [] { return cs::make_chain({.length = 4}); }},
      {"tmr.lr",
       [] {
         return lang::parse_program_file(std::string(LR_SOURCE_DIR) +
                                         "/models/tmr.lr");
       }},
  };
  for (const auto& [name, make] : models) {
    for (const sym::order::Mode mode : kHeuristicModes) {
      SCOPED_TRACE(name + " under " + sym::order::mode_name(mode));
      auto program = make();
      const sym::order::Plan plan = sym::order::plan_order(
          program->space(), program->order_structure(), mode);
      Options options;
      options.order_mode = mode;
      const RepairResult result = lazy_repair(*program, options);
      ASSERT_TRUE(result.success) << result.failure_reason;
      const bdd::Manager& mgr = program->space().manager();
      std::vector<bdd::VarIndex> levels(mgr.var_count());
      for (std::uint32_t l = 0; l < mgr.var_count(); ++l) {
        levels[l] = mgr.var_at_level(l);
      }
      EXPECT_EQ(levels, plan.var_at_level);
    }
  }
}

}  // namespace
}  // namespace lr::repair
