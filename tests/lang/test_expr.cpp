// Unit tests for the guarded-command expression language and its compiler.

#include <gtest/gtest.h>

#include <vector>

#include "lang/action.hpp"
#include "lang/expr.hpp"
#include "symbolic/space.hpp"

namespace lr::lang {
namespace {

using bdd::Bdd;
using sym::Space;
using sym::VarId;
using sym::Version;

/// Evaluates a boolean expression by brute force over all (x, y) values and
/// compares against the BDD compilation.
void check_against(Space& space, VarId x, VarId y, const Expr& e,
                   bool (*expected)(std::uint32_t, std::uint32_t)) {
  Compiler compiler(space);
  const Bdd compiled = compiler.compile_bool(e);
  const std::uint32_t dx = space.info(x).domain;
  const std::uint32_t dy = space.info(y).domain;
  for (std::uint32_t vx = 0; vx < dx; ++vx) {
    for (std::uint32_t vy = 0; vy < dy; ++vy) {
      const std::uint32_t values[2] = {vx, vy};
      const Bdd st = space.state(values);
      EXPECT_EQ(st.leq(compiled), expected(vx, vy))
          << e.to_string() << " at x=" << vx << " y=" << vy;
    }
  }
}

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() {
    x_ = space_.add_variable("x", 5);
    y_ = space_.add_variable("y", 5);
  }
  Space space_;
  VarId x_ = 0;
  VarId y_ = 0;
};

TEST_F(ExprTest, ComparisonsAgainstConstants) {
  check_against(space_, x_, y_, Expr::var(0) == 3u,
                [](std::uint32_t a, std::uint32_t) { return a == 3; });
  check_against(space_, x_, y_, Expr::var(0) != 2u,
                [](std::uint32_t a, std::uint32_t) { return a != 2; });
  check_against(space_, x_, y_, Expr::var(0) < 3u,
                [](std::uint32_t a, std::uint32_t) { return a < 3; });
  check_against(space_, x_, y_, Expr::var(0) <= 1u,
                [](std::uint32_t a, std::uint32_t) { return a <= 1; });
  check_against(space_, x_, y_, Expr::var(0) > 2u,
                [](std::uint32_t a, std::uint32_t) { return a > 2; });
  check_against(space_, x_, y_, Expr::var(0) >= 4u,
                [](std::uint32_t a, std::uint32_t) { return a >= 4; });
}

TEST_F(ExprTest, VariableToVariableComparisons) {
  check_against(space_, x_, y_, Expr::var(0) == Expr::var(1),
                [](std::uint32_t a, std::uint32_t b) { return a == b; });
  check_against(space_, x_, y_, Expr::var(0) < Expr::var(1),
                [](std::uint32_t a, std::uint32_t b) { return a < b; });
  check_against(space_, x_, y_, Expr::var(0) >= Expr::var(1),
                [](std::uint32_t a, std::uint32_t b) { return a >= b; });
}

TEST_F(ExprTest, Connectives) {
  check_against(
      space_, x_, y_, (Expr::var(0) == 1u) && (Expr::var(1) == 2u),
      [](std::uint32_t a, std::uint32_t b) { return a == 1 && b == 2; });
  check_against(
      space_, x_, y_, (Expr::var(0) == 1u) || (Expr::var(1) == 2u),
      [](std::uint32_t a, std::uint32_t b) { return a == 1 || b == 2; });
  check_against(space_, x_, y_, !(Expr::var(0) == 1u),
                [](std::uint32_t a, std::uint32_t) { return a != 1; });
  check_against(
      space_, x_, y_, (Expr::var(0) == 1u).implies(Expr::var(1) == 2u),
      [](std::uint32_t a, std::uint32_t b) { return a != 1 || b == 2; });
  check_against(
      space_, x_, y_, (Expr::var(0) == 1u).iff(Expr::var(1) == 1u),
      [](std::uint32_t a, std::uint32_t b) { return (a == 1) == (b == 1); });
}

TEST_F(ExprTest, ArithmeticAddSub) {
  check_against(space_, x_, y_, Expr::var(0) + 1u == Expr::var(1),
                [](std::uint32_t a, std::uint32_t b) { return a + 1 == b; });
  check_against(
      space_, x_, y_, Expr::var(0) + Expr::var(1) == 4u,
      [](std::uint32_t a, std::uint32_t b) { return a + b == 4; });
  // Subtraction within the guaranteed-nonnegative range.
  check_against(space_, x_, y_, Expr::var(0) - Expr::var(1) == 2u,
                [](std::uint32_t a, std::uint32_t b) {
                  return a >= b && a - b == 2;
                });
}

TEST_F(ExprTest, NumericIte) {
  // ite(x == 4, 0, x + 1): the modular increment idiom.
  const Expr inc =
      Expr::ite(Expr::var(0) == 4u, Expr::constant(0), Expr::var(0) + 1u);
  check_against(space_, x_, y_, inc == Expr::var(1),
                [](std::uint32_t a, std::uint32_t b) {
                  return b == (a == 4 ? 0u : a + 1);
                });
}

TEST_F(ExprTest, BoolConstants) {
  Compiler compiler(space_);
  EXPECT_TRUE(compiler.compile_bool(Expr::bool_const(true)).is_true());
  EXPECT_TRUE(compiler.compile_bool(Expr::bool_const(false)).is_false());
}

TEST_F(ExprTest, TypeErrors) {
  Compiler compiler(space_);
  // Numeric where boolean expected.
  EXPECT_THROW((void)compiler.compile_bool(Expr::var(0)),
               std::invalid_argument);
  // Boolean where numeric expected.
  EXPECT_THROW((void)compiler.compile_bits(Expr::bool_const(true)),
               std::invalid_argument);
  // Empty expressions.
  EXPECT_THROW((void)compiler.compile_bool(Expr{}), std::invalid_argument);
  EXPECT_THROW((void)(Expr{} == 3u), std::invalid_argument);
}

TEST_F(ExprTest, LongLeftDeepChainsCompileAndTearDownWithoutDeepRecursion) {
  // A left-deep chain as the parser builds it for `a || b || c ...`,
  // deeper than one stack frame per operand would fit in a default stack.
  // Every operand shares the same four terms, so only the chain is large.
  constexpr int kLength = 200000;
  const Expr terms[4] = {Expr::var(0) == 0u, Expr::var(0) == 2u,
                         Expr::var(1) == 1u, Expr::var(1) == 3u};
  Compiler compiler(space_);
  {
    Expr any = terms[0];
    Expr all = !terms[0];
    for (int i = 1; i < kLength; ++i) {
      any = any || terms[i % 4];
      all = all && !terms[i % 4];
    }
    check_against(space_, x_, y_, any, [](std::uint32_t a, std::uint32_t b) {
      return a == 0 || a == 2 || b == 1 || b == 3;
    });
    EXPECT_EQ(compiler.compile_bool(all), ~compiler.compile_bool(any));
  }  // both chains are torn down here
  // A shared subtree outlives the chains that held it.
  EXPECT_EQ(terms[3].to_string(), "(v1 == 3)");
}

TEST_F(ExprTest, ToStringIsReadable) {
  const Expr e = (Expr::var(0) == 2u) && (Expr::var(1) != Expr::var(0));
  EXPECT_EQ(e.to_string(), "((v0 == 2) && (v1 != v0))");
  EXPECT_EQ(Expr::next(1).to_string(), "next(v1)");
}

class ActionTest : public ::testing::Test {
 protected:
  ActionTest() {
    x_ = space_.add_variable("x", 3);
    y_ = space_.add_variable("y", 3);
  }

  Bdd tr(std::uint32_t x0, std::uint32_t y0, std::uint32_t x1,
         std::uint32_t y1) {
    const std::uint32_t from[2] = {x0, y0};
    const std::uint32_t to[2] = {x1, y1};
    return space_.transition(from, to);
  }

  Space space_;
  VarId x_ = 0;
  VarId y_ = 0;
};

TEST_F(ActionTest, AssignmentWithFrameRule) {
  // x == 0 --> x := y ; y must stay unchanged.
  const Action a =
      action("copy", Expr::var(x_) == 0u).assign(x_, Expr::var(y_));
  const Bdd t = compile_action(space_, a);
  EXPECT_TRUE(tr(0, 2, 2, 2).leq(t));
  EXPECT_TRUE(tr(0, 1, 1, 1).leq(t));
  EXPECT_FALSE(tr(1, 2, 2, 2).leq(t));  // guard false
  EXPECT_FALSE(tr(0, 2, 2, 1).leq(t));  // frame violated
  EXPECT_FALSE(tr(0, 2, 1, 2).leq(t));  // wrong assigned value
}

TEST_F(ActionTest, NondeterministicChoice) {
  const Action a = action("flip", Expr::var(x_) == 0u)
                       .choose(x_, {Expr::constant(1), Expr::constant(2)});
  const Bdd t = compile_action(space_, a);
  EXPECT_TRUE(tr(0, 0, 1, 0).leq(t));
  EXPECT_TRUE(tr(0, 0, 2, 0).leq(t));
  EXPECT_FALSE(tr(0, 0, 0, 0).leq(t));
}

TEST_F(ActionTest, HavocIsBoundedByDomain) {
  const Action a = action("havoc", Expr::bool_const(true)).havoc_var(y_);
  const Bdd t = compile_action(space_, a);
  // y' can be anything in-domain; x unchanged.
  EXPECT_TRUE(tr(1, 0, 1, 2).leq(t));
  EXPECT_TRUE(tr(1, 2, 1, 0).leq(t));
  EXPECT_FALSE(tr(1, 0, 2, 2).leq(t));  // x changed
  // Count: for each of 9 states, 3 choices of y'.
  EXPECT_DOUBLE_EQ(space_.count_transitions(t), 27.0);
}

TEST_F(ActionTest, RelationalGuardWithNextReference) {
  // Pure relational constraint: y' = y + 1 expressed in the guard.
  const Action a =
      action("incr", Expr::next(y_) == Expr::var(y_) + 1u).havoc_var(y_);
  const Bdd t = compile_action(space_, a);
  EXPECT_TRUE(tr(0, 0, 0, 1).leq(t));
  EXPECT_TRUE(tr(0, 1, 0, 2).leq(t));
  EXPECT_FALSE(tr(0, 2, 0, 0).leq(t));  // 3 is out of domain, not wrapped
  EXPECT_FALSE(tr(0, 0, 0, 2).leq(t));
}

TEST_F(ActionTest, CompileErrors) {
  // Empty guard.
  Action no_guard;
  no_guard.name = "broken";
  EXPECT_THROW((void)compile_action(space_, no_guard), std::invalid_argument);
  // Double assignment.
  Action twice = action("twice", Expr::bool_const(true))
                     .assign(x_, Expr::constant(0))
                     .assign(x_, Expr::constant(1));
  EXPECT_THROW((void)compile_action(space_, twice), std::invalid_argument);
  // Assign + havoc conflict.
  Action conflict = action("conflict", Expr::bool_const(true))
                        .assign(x_, Expr::constant(0))
                        .havoc_var(x_);
  EXPECT_THROW((void)compile_action(space_, conflict), std::invalid_argument);
  // Assignment with no alternatives.
  Action empty_choice = action("empty", Expr::bool_const(true))
                            .choose(x_, {});
  EXPECT_THROW((void)compile_action(space_, empty_choice),
               std::invalid_argument);
}

TEST_F(ActionTest, CompileActionsIsUnion) {
  const Action a1 =
      action("a1", Expr::var(x_) == 0u).assign(x_, Expr::constant(1));
  const Action a2 =
      action("a2", Expr::var(x_) == 1u).assign(x_, Expr::constant(2));
  const std::vector<Action> actions{a1, a2};
  const Bdd t = compile_actions(space_, actions);
  EXPECT_EQ(t, compile_action(space_, a1) | compile_action(space_, a2));
}

TEST_F(ActionTest, OutOfDomainAssignmentYieldsNoTransitions) {
  // x := y + 2 has no effect when y + 2 falls outside x's domain.
  const Action a = action("shift", Expr::bool_const(true))
                       .assign(x_, Expr::var(y_) + 2u);
  const Bdd t = compile_action(space_, a);
  EXPECT_TRUE(tr(0, 0, 2, 0).leq(t));
  // y=1 -> x'=3 invalid; no transition from y=1 exists.
  const std::uint32_t from[2] = {0, 1};
  const Bdd src = space_.state(from);
  EXPECT_TRUE(src.disjoint(space_.manager().exists(
      t, space_.cube(Version::kNext))));
}

/// compile_action as the ascending left fold builds it: guard, assigned
/// values, one unchanged(v) per untouched variable, then valid_pair.
Bdd compile_action_by_left_fold(Space& space, const Action& a) {
  Compiler compiler(space);
  Bdd t = compiler.compile_bool(a.guard);
  std::vector<bool> touched(space.variable_count(), false);
  for (const Assignment& assign : a.assigns) {
    touched[assign.var] = true;
    Bdd alt = space.bdd_false();
    for (const Expr& e : assign.alternatives) {
      alt |= compiler.compile_bool(Expr::next(assign.var) == e);
    }
    t &= alt;
  }
  for (const VarId v : a.havoc) touched[v] = true;
  for (VarId v = 0; v < space.variable_count(); ++v) {
    if (!touched[v]) t &= space.unchanged(v);
  }
  return t & space.valid_pair();
}

TEST(CompileActionTest, FrameEqualsTheLeftFold) {
  Space space;
  const VarId a = space.add_variable("a", 3);
  const VarId b = space.add_variable("b", 4);
  const VarId c = space.add_variable("c", 5);
  const VarId d = space.add_variable("d", 2);
  const VarId e = space.add_variable("e", 7);
  const std::vector<Action> actions = {
      action("havoc", Expr::var(a) == 1u).havoc_var(c),
      action("havoc2", Expr::var(e) != 0u).havoc_var(b).havoc_var(e),
      action("multi", Expr::var(b) < Expr::var(c))
          .assign(a, Expr::var(d))
          .assign(e, Expr::var(c) + 1u)
          .assign(b, Expr::constant(0)),
      action("choose", Expr::var(d) == 0u)
          .choose(c, {Expr::constant(1), Expr::var(a), Expr::var(b) + 2u}),
      action("all", Expr::bool_const(true))
          .assign(a, Expr::constant(2))
          .assign(b, Expr::constant(3))
          .assign(c, Expr::constant(4))
          .assign(d, Expr::constant(1))
          .assign(e, Expr::constant(6)),
  };
  for (const Action& act : actions) {
    EXPECT_EQ(compile_action(space, act),
              compile_action_by_left_fold(space, act))
        << act.name;
  }
}

}  // namespace
}  // namespace lr::lang
