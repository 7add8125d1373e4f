// Tests for the distributed-program model and the realizability machinery,
// including the paper's Section III-B worked example (Figures 3-5).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "lang/parser.hpp"
#include "program/distributed_program.hpp"
#include "repair/order_setup.hpp"

namespace lr::prog {
namespace {

using bdd::Bdd;
using lang::Expr;
using lang::action;
using sym::VarId;
using sym::Version;

/// The running example of Section III-B: three binary variables v0,v1,v2;
/// process j reads {v0,v1} writes {v1}; process k reads {v0,v2} writes {v2}.
class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest() : program_("paper-example") {
    v0_ = program_.add_variable("v0", 2);
    v1_ = program_.add_variable("v1", 2);
    v2_ = program_.add_variable("v2", 2);
    Process pj;
    pj.name = "pj";
    pj.reads = {v0_, v1_};
    pj.writes = {v1_};
    // The action from the paper's Figure 5: if v0==0 && v1==0 then v1 := 1.
    pj.actions.push_back(action("set1", Expr::var(v0_) == 0u &&
                                            Expr::var(v1_) == 0u)
                             .assign(v1_, Expr::constant(1)));
    j_ = program_.add_process(std::move(pj));
    Process pk;
    pk.name = "pk";
    pk.reads = {v0_, v2_};
    pk.writes = {v2_};
    k_ = program_.add_process(std::move(pk));
    program_.set_invariant(Expr::bool_const(true));
  }

  Bdd tr(std::uint32_t a0, std::uint32_t b0, std::uint32_t c0,
         std::uint32_t a1, std::uint32_t b1, std::uint32_t c1) {
    const std::uint32_t from[3] = {a0, b0, c0};
    const std::uint32_t to[3] = {a1, b1, c1};
    return program_.space().transition(from, to);
  }

  DistributedProgram program_;
  VarId v0_ = 0, v1_ = 0, v2_ = 0;
  std::size_t j_ = 0, k_ = 0;
};

TEST_F(PaperExampleTest, Figure3IsNotRealizable) {
  // (000, 011) changes both v1 and v2: no single process can write both.
  const Bdd fig3 = tr(0, 0, 0, 0, 1, 1);
  EXPECT_FALSE(program_.realizable_by_process(j_, fig3));
  EXPECT_FALSE(program_.realizable_by_process(k_, fig3));
  EXPECT_FALSE(program_.realize_by_program(fig3).has_value());
}

TEST_F(PaperExampleTest, Figure4ViolatesReadRestriction) {
  // (000, 010) alone respects pj's write set but its group also contains
  // (001, 011); alone it is not realizable.
  const Bdd fig4 = tr(0, 0, 0, 0, 1, 0);
  EXPECT_TRUE(fig4.leq(program_.respects_write(j_)));
  EXPECT_FALSE(program_.realizable_by_process(j_, fig4));
  EXPECT_FALSE(program_.realize_by_program(fig4).has_value());
}

TEST_F(PaperExampleTest, Figure5IsRealizable) {
  const Bdd fig5 = tr(0, 0, 0, 0, 1, 0) | tr(0, 0, 1, 0, 1, 1);
  EXPECT_TRUE(program_.realizable_by_process(j_, fig5));
  const auto decomposition = program_.realize_by_program(fig5);
  ASSERT_TRUE(decomposition.has_value());
  EXPECT_EQ((*decomposition)[j_], fig5);
  EXPECT_TRUE((*decomposition)[k_].is_false());
}

TEST_F(PaperExampleTest, GroupOfSingleTransitionMatchesPaper) {
  // group_j((000,010)) = {(000,010), (001,011)}.
  const Bdd single = tr(0, 0, 0, 0, 1, 0);
  const Bdd expected = tr(0, 0, 0, 0, 1, 0) | tr(0, 0, 1, 0, 1, 1);
  EXPECT_EQ(program_.group(j_, single), expected);
  // Group closure is idempotent.
  EXPECT_EQ(program_.group(j_, expected), expected);
}

TEST_F(PaperExampleTest, GroupOfUnreadableChangingTransitionIsEmpty) {
  // A transition changing v2 (unreadable AND unwritable for pj) has an
  // empty group for pj.
  const Bdd changes_v2 = tr(0, 0, 0, 0, 0, 1);
  EXPECT_TRUE(program_.group(j_, changes_v2).is_false());
}

TEST_F(PaperExampleTest, RealizableSubsetKeepsExactlyFullGroups) {
  // Mix one full group (for pj) with one partial transition.
  const Bdd full = tr(0, 0, 0, 0, 1, 0) | tr(0, 0, 1, 0, 1, 1);
  const Bdd partial = tr(0, 1, 0, 0, 0, 0);  // v1: 1 -> 0, group misses 001->?
  const Bdd subset = program_.realizable_subset(j_, full | partial);
  EXPECT_EQ(subset, full);
}

TEST_F(PaperExampleTest, ProcessDeltaComesFromActions) {
  // pj's action is exactly Figure 5's group.
  const Bdd expected = tr(0, 0, 0, 0, 1, 0) | tr(0, 0, 1, 0, 1, 1);
  EXPECT_EQ(program_.process_delta(j_), expected);
  EXPECT_TRUE(program_.process_delta(k_).is_false());
  EXPECT_EQ(program_.actions_delta(), expected);
  // The program's own action set is realizable (sanity).
  EXPECT_TRUE(program_.realizable_by_process(j_, program_.process_delta(j_)));
}

TEST_F(PaperExampleTest, StutterCompletionAddsLoopsAtDisabledStates) {
  const Bdd delta = program_.actions_delta();
  const Bdd with_stutter = program_.stutter_completion(delta);
  // States where the action is disabled (v0=1 or v1=1) stutter.
  const std::uint32_t stuck[3] = {1, 0, 0};
  const std::uint32_t enabled[3] = {0, 0, 0};
  EXPECT_TRUE(program_.space()
                  .transition(stuck, stuck)
                  .leq(with_stutter));
  EXPECT_FALSE(program_.space()
                   .transition(enabled, enabled)
                   .leq(with_stutter));
  EXPECT_EQ(program_.program_delta(), with_stutter);
}

TEST_F(PaperExampleTest, WriteViolationIsNeverRealizable) {
  // Process k cannot change v1 no matter how transitions are grouped.
  const Bdd t = tr(0, 0, 0, 0, 1, 0) | tr(0, 0, 1, 0, 1, 1);
  EXPECT_FALSE(t.leq(program_.respects_write(k_)));
  EXPECT_FALSE(program_.realizable_by_process(k_, t));
}

TEST_F(PaperExampleTest, MutationAfterFreezeThrows) {
  (void)program_.invariant();
  EXPECT_THROW((void)program_.add_variable("late", 2), std::logic_error);
  EXPECT_THROW(program_.add_fault(action("f", Expr::bool_const(true))),
               std::logic_error);
  EXPECT_THROW(program_.set_invariant(Expr::bool_const(true)),
               std::logic_error);
}

TEST_F(PaperExampleTest, WriteOutsideReadSetRejected) {
  DistributedProgram bad("bad");
  const VarId a = bad.add_variable("a", 2);
  const VarId b = bad.add_variable("b", 2);
  Process p;
  p.name = "p";
  p.reads = {a};
  p.writes = {b};  // not a subset of reads
  EXPECT_THROW((void)bad.add_process(std::move(p)), std::invalid_argument);
}

/// A tiny fault-prone program: x should stay 1; a fault resets it to 0; the
/// process can restore it.
class FaultyProgramTest : public ::testing::Test {
 protected:
  FaultyProgramTest() : program_("faulty") {
    x_ = program_.add_variable("x", 2);
    y_ = program_.add_variable("y", 2);
    Process p;
    p.name = "p";
    p.reads = {x_, y_};
    p.writes = {x_, y_};
    p.actions.push_back(action("restore", Expr::var(x_) == 0u)
                            .assign(x_, Expr::constant(1)));
    program_.add_process(std::move(p));
    program_.add_fault(
        action("hit", Expr::var(x_) == 1u).assign(x_, Expr::constant(0)));
    program_.set_invariant(Expr::var(x_) == 1u);
    program_.add_bad_states(Expr::var(y_) == 1u);
  }

  DistributedProgram program_;
  VarId x_ = 0, y_ = 0;
};

TEST_F(FaultyProgramTest, FaultDeltaAndSafetyCompile) {
  // Fault: flips x from 1 to 0 (y arbitrary but unchanged): 2 transitions.
  EXPECT_DOUBLE_EQ(program_.space().count_transitions(program_.fault_delta()),
                   2.0);
  EXPECT_DOUBLE_EQ(program_.space().count_states(program_.invariant()), 2.0);
  EXPECT_DOUBLE_EQ(program_.space().count_states(program_.safety().bad_states),
                   2.0);
  EXPECT_TRUE(program_.safety().bad_trans.is_false());
}

TEST_F(FaultyProgramTest, ReachableUnderFaultsCoversFaultEffects) {
  const Bdd reach = program_.reachable_under_faults();
  // From invariant (x=1, y any), faults reach x=0; y never becomes... y is
  // never written, so reach = all 4 valid states with y as in the start.
  const std::uint32_t s10[2] = {1, 0};
  const std::uint32_t s00[2] = {0, 0};
  EXPECT_TRUE(program_.space().state(s10).leq(reach));
  EXPECT_TRUE(program_.space().state(s00).leq(reach));
  EXPECT_DOUBLE_EQ(program_.space().count_states(reach), 4.0);
}

TEST_F(FaultyProgramTest, FaultsAreNotGroupRestricted) {
  // Faults may do anything; realizability machinery applies to processes
  // only. group() of the fault delta w.r.t. the (all-reading) process is
  // itself.
  EXPECT_EQ(program_.group(0, program_.fault_delta()),
            program_.fault_delta());
}

/// The compiled unions and frames against the left folds they replace:
/// equal functions share one node, so each pair must have the same id.
void expect_compile_matches_left_fold(DistributedProgram& program) {
  sym::Space& space = program.space();
  Bdd actions = space.bdd_false();
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    actions |= program.process_delta(j);
  }
  EXPECT_EQ(program.actions_delta(), actions);
  Bdd faults = space.bdd_false();
  for (const Bdd& fault : program.fault_action_deltas()) faults |= fault;
  EXPECT_EQ(program.fault_delta(), faults);
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const std::vector<VarId>& writes = program.process(j).writes;
    const std::vector<VarId>& reads = program.process(j).reads;
    Bdd respects_write = space.bdd_true();
    Bdd same_unreadable = space.bdd_true();
    for (VarId v = 0; v < space.variable_count(); ++v) {
      if (std::find(writes.begin(), writes.end(), v) == writes.end()) {
        respects_write &= space.unchanged(v);
      }
      if (std::find(reads.begin(), reads.end(), v) == reads.end()) {
        same_unreadable &= space.unchanged(v);
      }
    }
    EXPECT_EQ(program.respects_write(j), respects_write) << "process " << j;
    EXPECT_EQ(program.same_unreadable(j), same_unreadable) << "process " << j;
  }
}

TEST(CompileTest, UnionsAndFramesEqualTheLeftFold) {
  lr::cs::ByzantineOptions byzantine;
  byzantine.fail_stop = true;
  expect_compile_matches_left_fold(*lr::cs::make_byzantine(byzantine));
  lr::cs::ChainOptions chain;
  chain.length = 7;
  chain.domain = 5;
  expect_compile_matches_left_fold(*lr::cs::make_chain(chain));
}

TEST(CompileTest, UnionsAndFramesEqualTheLeftFoldAfterAutoOrder) {
  // --order=auto picks the interleave order for tmr.lr, so compile runs
  // after a real permutation of the levels.
  const auto program = lang::parse_program_file(
      std::string(LR_SOURCE_DIR) + "/models/tmr.lr");
  lr::repair::Options options;
  options.order_mode = sym::order::Mode::kAuto;
  lr::repair::apply_order_options(*program, options);
  const bdd::Manager& mgr = program->space().manager();
  bool permuted = false;
  for (bdd::VarIndex v = 0; v < mgr.var_count(); ++v) {
    permuted = permuted || mgr.level_of(v) != v;
  }
  ASSERT_TRUE(permuted) << "auto kept the declaration order";
  expect_compile_matches_left_fold(*program);
}

TEST(CompileTest, ChainCompileLookupsGrowAboutQuadratically) {
  // Frames built deepest-first cost about n^2 lookups for the n processes
  // of Sc^n; the ascending left fold re-walked the growing frame and cost
  // about n^3 (6.07x from Sc^16 to Sc^32 at domain 8, against 3.35x).
  const auto compile_lookups = [](std::size_t length) {
    lr::cs::ChainOptions options;
    options.length = length;
    options.domain = 8;
    const auto program = lr::cs::make_chain(options);
    const bdd::Manager& mgr = program->space().manager();
    const std::uint64_t before = mgr.stats().cache_lookups;
    (void)program->actions_delta();
    return static_cast<double>(mgr.stats().cache_lookups - before);
  };
  const double small = compile_lookups(16);
  const double large = compile_lookups(32);
  ASSERT_GT(small, 0.0);
  EXPECT_LE(large, 4.5 * small) << small << " -> " << large << " lookups";
}

}  // namespace
}  // namespace lr::prog
