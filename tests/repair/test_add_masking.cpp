// Unit tests for Step 1 (Add-Masking without realizability constraints).

#include <gtest/gtest.h>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "program/distributed_program.hpp"
#include "repair/add_masking.hpp"
#include "repair/relation_setup.hpp"

namespace lr::repair {
namespace {

using lang::Expr;
using lang::action;

StepOneResult run(prog::DistributedProgram& p, const Options& options = {}) {
  Stats stats;
  return add_masking(p, p.invariant(), p.space().bdd_false(), bdd::Bdd(),
                     options, stats);
}

/// x ∈ {0..2}; invariant x=0; fault bumps x to 1; process can reset from 1.
/// From 2 there is no return, and a bad state sits at x=2.
std::unique_ptr<prog::DistributedProgram> make_micro() {
  auto p = std::make_unique<prog::DistributedProgram>("micro");
  const sym::VarId x = p->add_variable("x", 3);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  proc.actions.push_back(
      action("reset", Expr::var(x) == 1u).assign(x, Expr::constant(0)));
  p->add_process(std::move(proc));
  p->add_fault(action("bump", Expr::var(x) == 0u).assign(x, Expr::constant(1)));
  p->set_invariant(Expr::var(x) == 0u);
  p->add_bad_states(Expr::var(x) == 2u);
  return p;
}

TEST(AddMaskingTest, MicroModelKeepsInvariantAndRecovers) {
  auto p = make_micro();
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.invariant, p->invariant());
  // Fault span: {0, 1} (2 is a bad state, never reached).
  EXPECT_DOUBLE_EQ(sp.count_states(r.fault_span), 2.0);
  // Recovery 1 -> 0 is in δ'; no transition enters the bad state.
  const std::uint32_t one[1] = {1};
  const std::uint32_t zero[1] = {0};
  const std::uint32_t two[1] = {2};
  EXPECT_TRUE(sp.transition(one, zero).leq(r.delta));
  EXPECT_TRUE(r.delta.disjoint(sp.prime(sp.state(two))));
}

TEST(AddMaskingTest, FailsWhenFaultsForceBadStates) {
  // Fault jumps straight from the invariant to the bad state: ms swallows
  // the invariant, no repair exists.
  auto p = std::make_unique<prog::DistributedProgram>("doomed");
  const sym::VarId x = p->add_variable("x", 2);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  p->add_process(std::move(proc));
  p->add_fault(
      action("kill", Expr::var(x) == 0u).assign(x, Expr::constant(1)));
  p->set_invariant(Expr::var(x) == 0u);
  p->add_bad_states(Expr::var(x) == 1u);
  const StepOneResult r = run(*p);
  EXPECT_FALSE(r.success);
}

TEST(AddMaskingTest, FailsWhenAFaultSequenceForcesBadStates) {
  // Each fault step is safe, but three in a row reach the bad state x = 3
  // from the invariant x = 0: ms must close backward under the faults and
  // swallow the invariant.
  auto p = std::make_unique<prog::DistributedProgram>("fault_chain");
  const sym::VarId x = p->add_variable("x", 4);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  proc.actions.push_back(
      action("reset", Expr::var(x) == 1u || Expr::var(x) == 2u)
          .assign(x, Expr::constant(0)));
  p->add_process(std::move(proc));
  p->add_fault(action("bump", Expr::var(x) != 3u)
                   .assign(x, Expr::var(x) + Expr::constant(1)));
  p->set_invariant(Expr::var(x) == 0u);
  p->add_bad_states(Expr::var(x) == 3u);
  sym::Space& space = p->space();
  const bdd::Bdd valid = space.valid(sym::Version::kCurrent);
  const sym::TransitionRelation faults = fault_relation(*p);
  EXPECT_EQ(fault_unsafe_states(*p, faults, p->safety().bad_states,
                                p->safety().bad_trans, valid, nullptr),
            valid);
  // The closure stays inside `within`: without x = 2 the chain is cut.
  const bdd::Bdd no_two =
      valid.minus(space.value_eq(x, 2, sym::Version::kCurrent));
  EXPECT_EQ(fault_unsafe_states(*p, faults, p->safety().bad_states,
                                p->safety().bad_trans, no_two, nullptr),
            space.value_eq(x, 3, sym::Version::kCurrent));
  EXPECT_FALSE(run(*p).success);
}

TEST(AddMaskingTest, FailsOnEmptyInvariant) {
  auto p = std::make_unique<prog::DistributedProgram>("empty");
  const sym::VarId x = p->add_variable("x", 2);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  p->add_process(std::move(proc));
  p->set_invariant(Expr::bool_const(false));
  const StepOneResult r = run(*p);
  EXPECT_FALSE(r.success);
}

TEST(AddMaskingTest, InvariantClosedAndSafeUnderDelta) {
  auto p = cs::make_byzantine({.non_generals = 3});
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  // Closure of S' under δ'.
  EXPECT_TRUE(sp.image(r.delta, r.invariant).leq(r.invariant));
  // S' ⊆ S and δ'|S' ⊆ δ_P|S'.
  EXPECT_TRUE(r.invariant.leq(p->invariant()));
  EXPECT_TRUE((r.delta & r.invariant & sp.prime(r.invariant))
                  .leq(p->program_delta()));
  // δ' avoids bad states and transitions entirely.
  EXPECT_TRUE(r.delta.disjoint(p->safety().bad_trans));
  EXPECT_TRUE(r.delta.disjoint(sp.prime(p->safety().bad_states)));
}

TEST(AddMaskingTest, SpanClosedUnderFaultsAndDelta) {
  auto p = cs::make_byzantine({.non_generals = 3});
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(sp.image(p->fault_delta(), r.fault_span).leq(r.fault_span));
  EXPECT_TRUE(sp.image(r.delta, r.fault_span).leq(r.fault_span));
}

TEST(AddMaskingTest, EverySpanStateReachesInvariant) {
  auto p = cs::make_byzantine({.non_generals = 3});
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.fault_span.leq(sp.backward_reachable(r.delta, r.invariant)));
}

TEST(AddMaskingTest, NoSelfLoopsOutsideInvariant) {
  auto p = cs::make_chain({.length = 3, .domain = 3});
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  const bdd::Bdd outside = r.fault_span.minus(r.invariant);
  EXPECT_TRUE((r.delta & sp.identity()).disjoint(outside));
}

TEST(AddMaskingTest, HeuristicOffExploresWholeSpace) {
  auto p1 = cs::make_chain({.length = 3, .domain = 2});
  Options restricted;
  Stats stats_on;
  const StepOneResult on = add_masking(*p1, p1->invariant(),
                                       p1->space().bdd_false(), bdd::Bdd(),
                                       restricted, stats_on);
  auto p2 = cs::make_chain({.length = 3, .domain = 2});
  Options full;
  full.restrict_to_reachable = false;
  Stats stats_off;
  const StepOneResult off = add_masking(*p2, p2->invariant(),
                                        p2->space().bdd_false(), bdd::Bdd(),
                                        full, stats_off);
  ASSERT_TRUE(on.success);
  ASSERT_TRUE(off.success);
  // For the chain, faults reach everything, so both agree.
  EXPECT_DOUBLE_EQ(stats_on.reachable_states, stats_off.reachable_states);
  EXPECT_DOUBLE_EQ(p1->space().count_states(on.invariant),
                   p2->space().count_states(off.invariant));
}

TEST(AddMaskingTest, ExtraBadTransitionsAreRespected) {
  auto p = make_micro();
  auto& sp = p->space();
  // Ban the recovery transition 1 -> 0: repair becomes impossible (faults
  // still push 0 -> 1 and 1 cannot idle forever).
  const std::uint32_t one[1] = {1};
  const std::uint32_t zero[1] = {0};
  const bdd::Bdd ban = sp.transition(one, zero);
  Stats stats;
  Options options;
  const StepOneResult r =
      add_masking(*p, p->invariant(), ban, bdd::Bdd(), options, stats);
  EXPECT_FALSE(r.success);
}

TEST(AddMaskingTest, ReportsLayerAndRoundStatistics) {
  auto p = cs::make_chain({.length = 4, .domain = 2});
  Stats stats;
  Options options;
  const StepOneResult r = add_masking(*p, p->invariant(),
                                      p->space().bdd_false(), bdd::Bdd(),
                                      options, stats);
  ASSERT_TRUE(r.success);
  EXPECT_GE(stats.addmasking_rounds, 1u);
  EXPECT_GE(stats.recovery_layers, 1u);
  EXPECT_GT(stats.reachable_states, 0.0);
  EXPECT_GT(stats.span_states, 0.0);
  EXPECT_GT(stats.invariant_states, 0.0);
}

}  // namespace
}  // namespace lr::repair
