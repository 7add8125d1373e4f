// Unit tests for quantification, permutation, minterm extraction and
// counting — the operations the repair algorithms are built from.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "bdd/bdd.hpp"

namespace lr::bdd {
namespace {

class BddQuantifyTest : public ::testing::Test {
 protected:
  BddQuantifyTest() {
    for (int i = 0; i < 10; ++i) vars_.push_back(mgr_.new_var());
  }

  Bdd v(int i) { return mgr_.bdd_var(vars_[i]); }
  Bdd cube(std::initializer_list<int> is) {
    std::vector<VarIndex> vs;
    for (int i : is) vs.push_back(vars_[i]);
    return mgr_.make_cube(vs);
  }

  Manager mgr_;
  std::vector<VarIndex> vars_;
};

TEST_F(BddQuantifyTest, ExistsDropsAVariable) {
  // ∃a. (a ∧ b) = b ; ∃a. (a ∧ ¬a) = 0 ; ∃a. b = b
  EXPECT_EQ(mgr_.exists(v(0) & v(1), cube({0})), v(1));
  EXPECT_EQ(mgr_.exists(mgr_.bdd_false(), cube({0})), mgr_.bdd_false());
  EXPECT_EQ(mgr_.exists(v(1), cube({0})), v(1));
}

TEST_F(BddQuantifyTest, ExistsOfXorIsTrue) {
  EXPECT_EQ(mgr_.exists(v(0) ^ v(1), cube({0})), mgr_.bdd_true());
  EXPECT_EQ(mgr_.exists(v(0) ^ v(1), cube({0, 1})), mgr_.bdd_true());
}

TEST_F(BddQuantifyTest, ForallIsDualOfExists) {
  const Bdd f = (v(0) & v(1)) | v(2);
  const Bdd c = cube({0, 2});
  EXPECT_EQ(mgr_.forall(f, c), ~mgr_.exists(~f, c));
  // ∀a. (a ∨ b) = b; ∀a. a = 0.
  EXPECT_EQ(mgr_.forall(v(0) | v(1), cube({0})), v(1));
  EXPECT_EQ(mgr_.forall(v(0), cube({0})), mgr_.bdd_false());
}

TEST_F(BddQuantifyTest, QuantifierOverEmptyCubeIsIdentity) {
  const Bdd f = (v(0) & v(1)) ^ v(3);
  EXPECT_EQ(mgr_.exists(f, mgr_.bdd_true()), f);
  EXPECT_EQ(mgr_.forall(f, mgr_.bdd_true()), f);
}

TEST_F(BddQuantifyTest, AndExistsMatchesComposition) {
  const Bdd f = (v(0) & v(1)) | (v(2) & ~v(3));
  const Bdd g = v(1) ^ v(2);
  const Bdd c = cube({1, 2});
  EXPECT_EQ(mgr_.and_exists(f, g, c), mgr_.exists(f & g, c));
  // Also when the cube mentions variables absent from both operands.
  const Bdd c2 = cube({1, 2, 7, 9});
  EXPECT_EQ(mgr_.and_exists(f, g, c2), mgr_.exists(f & g, c2));
}

TEST_F(BddQuantifyTest, AndExistsWithEmptyCubeIsConjunction) {
  const Bdd f = v(0) | v(4);
  const Bdd g = ~v(0) | v(5);
  EXPECT_EQ(mgr_.and_exists(f, g, mgr_.bdd_true()), f & g);
}

TEST_F(BddQuantifyTest, PermutationSwapsVariables) {
  // Swap variables 0 <-> 1 globally (identity elsewhere).
  std::vector<VarIndex> perm(mgr_.var_count());
  std::iota(perm.begin(), perm.end(), 0);
  std::swap(perm[vars_[0]], perm[vars_[1]]);
  const PermId pid = mgr_.register_permutation(perm);

  EXPECT_EQ(mgr_.permute(v(0), pid), v(1));
  EXPECT_EQ(mgr_.permute(v(1), pid), v(0));
  EXPECT_EQ(mgr_.permute(v(2), pid), v(2));
  const Bdd f = (v(0) & ~v(1)) | v(2);
  const Bdd expected = (v(1) & ~v(0)) | v(2);
  EXPECT_EQ(mgr_.permute(f, pid), expected);
  // An involution: applying the swap twice is the identity.
  EXPECT_EQ(mgr_.permute(mgr_.permute(f, pid), pid), f);
}

TEST_F(BddQuantifyTest, PermutationAcrossDistantLevels) {
  std::vector<VarIndex> perm(mgr_.var_count());
  std::iota(perm.begin(), perm.end(), 0);
  std::swap(perm[vars_[0]], perm[vars_[9]]);
  const PermId pid = mgr_.register_permutation(perm);
  const Bdd f = v(0).ite(v(4), v(9));
  const Bdd expected = v(9).ite(v(4), v(0));
  EXPECT_EQ(mgr_.permute(f, pid), expected);
}

TEST_F(BddQuantifyTest, RegisterPermutationRejectsWrongSize) {
  const std::vector<VarIndex> tooshort(2, 0);
  EXPECT_THROW((void)mgr_.register_permutation(tooshort),
               std::invalid_argument);
}

TEST_F(BddQuantifyTest, SatCountSmallFunctions) {
  EXPECT_DOUBLE_EQ(mgr_.sat_count(mgr_.bdd_true(), 3), 8.0);
  EXPECT_DOUBLE_EQ(mgr_.sat_count(mgr_.bdd_false(), 3), 0.0);
  EXPECT_DOUBLE_EQ(mgr_.sat_count(v(0), 3), 4.0);
  EXPECT_DOUBLE_EQ(mgr_.sat_count(v(0) & v(1), 3), 2.0);
  EXPECT_DOUBLE_EQ(mgr_.sat_count(v(0) | v(1), 3), 6.0);
  EXPECT_DOUBLE_EQ(mgr_.sat_count(v(0) ^ v(1), 2), 2.0);
}

TEST_F(BddQuantifyTest, SatCountScalesWithUniverseSize) {
  const Bdd f = v(0);
  EXPECT_DOUBLE_EQ(mgr_.sat_count(f, 1), 1.0);
  EXPECT_DOUBLE_EQ(mgr_.sat_count(f, 10), 512.0);
  // Huge universes do not overflow (doubles carry the exponent).
  EXPECT_GT(mgr_.sat_count(mgr_.bdd_true(), 200), 1e59);
}

TEST_F(BddQuantifyTest, PickMintermReturnsAMintermInsideF) {
  const Bdd f = (v(0) & v(1)) | (v(2) & v(3));
  const Bdd c = cube({0, 1, 2, 3});
  const Bdd m = mgr_.pick_minterm(f, c);
  EXPECT_TRUE(m.leq(f));
  EXPECT_FALSE(m.is_false());
  // A minterm over 4 variables has exactly one satisfying assignment.
  EXPECT_DOUBLE_EQ(mgr_.sat_count(m, 4), 1.0);
}

TEST_F(BddQuantifyTest, PickMintermIsDeterministicAndPrefersZero) {
  // f = v2 alone; picking over {0,1,2} must fix v0=v1=0, v2=1.
  const Bdd m = mgr_.pick_minterm(v(2), cube({0, 1, 2}));
  EXPECT_EQ(m, ~v(0) & ~v(1) & v(2));
  EXPECT_EQ(m, mgr_.pick_minterm(v(2), cube({0, 1, 2})));
}

TEST_F(BddQuantifyTest, PickMintermThrowsOnFalse) {
  EXPECT_THROW((void)mgr_.pick_minterm(mgr_.bdd_false(), cube({0})),
               std::invalid_argument);
}

TEST_F(BddQuantifyTest, ForeachMintermEnumeratesAllSolutions) {
  const Bdd f = v(0) ^ v(1);
  std::vector<std::vector<bool>> seen;
  mgr_.foreach_minterm(f, cube({0, 1}), [&](std::span<const bool> values) {
    seen.emplace_back(values.begin(), values.end());
  });
  ASSERT_EQ(seen.size(), 2u);
  // Enumeration order: lexicographic with false < true.
  EXPECT_EQ(seen[0], (std::vector<bool>{false, true}));
  EXPECT_EQ(seen[1], (std::vector<bool>{true, false}));
}

TEST_F(BddQuantifyTest, ForeachMintermCountMatchesSatCount) {
  const Bdd f = (v(0) | v(1)) & (v(2) | ~v(3));
  const Bdd c = cube({0, 1, 2, 3});
  std::size_t count = 0;
  mgr_.foreach_minterm(f, c, [&](std::span<const bool>) { ++count; });
  EXPECT_DOUBLE_EQ(static_cast<double>(count), mgr_.sat_count(f, 4));
}

TEST_F(BddQuantifyTest, ForeachIsopCubeCoversFunctionExactly) {
  const Bdd f = (v(0) & v(1)) | ((~v(0)) & v(2));
  Bdd rebuilt = mgr_.bdd_false();
  mgr_.isop(f, f).foreach_cube([&](std::span<const signed char> values) {
    Bdd term = mgr_.bdd_true();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == 0) term &= mgr_.bdd_nvar(static_cast<VarIndex>(i));
      if (values[i] == 1) term &= mgr_.bdd_var(static_cast<VarIndex>(i));
    }
    rebuilt |= term;
  });
  EXPECT_EQ(rebuilt, f);
}

TEST_F(BddQuantifyTest, SupportCubeEqualsCubeOfSupport) {
  const Bdd f = (v(1) & v(4)) ^ v(7);
  EXPECT_EQ(mgr_.support_cube(f), cube({1, 4, 7}));
}

}  // namespace
}  // namespace lr::bdd
