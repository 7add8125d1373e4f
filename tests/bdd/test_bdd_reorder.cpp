// Tests for in-place level exchange (Manager::swap_adjacent_levels) and
// the complete reorders built from it (bdd::order::apply_order).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/order.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

/// Truth-table fingerprint of f over the first `n` variables (n <= 16).
std::vector<bool> fingerprint(const Manager& mgr, const Bdd& f,
                              std::uint32_t n) {
  std::vector<bool> table;
  table.reserve(1u << n);
  std::vector<bool> assignment(n);
  for (std::uint32_t row = 0; row < (1u << n); ++row) {
    bool buf[16];
    for (std::uint32_t v = 0; v < n; ++v) buf[v] = ((row >> v) & 1u) != 0;
    table.push_back(mgr.eval(f, std::span<const bool>(buf, n)));
  }
  (void)assignment;
  return table;
}

/// Imposes a seeded random permutation of every variable as the order.
void apply_random_order(Manager& mgr, std::uint64_t seed) {
  std::vector<VarIndex> order(mgr.var_count());
  std::iota(order.begin(), order.end(), VarIndex{0});
  lr::support::SplitMix64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  (void)order::apply_order(mgr, order);
}

TEST(BddReorderTest, SwapAdjacentLevelsPreservesSemantics) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(mgr.new_var());
  lr::support::SplitMix64 rng(5);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 24; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      if (rng.flip()) term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= term;
  }
  const auto before = fingerprint(mgr, f, 6);
  for (std::uint32_t l = 0; l + 1 < 6; ++l) {
    (void)mgr.swap_adjacent_levels(l);
    EXPECT_EQ(fingerprint(mgr, f, 6), before) << "after swapping level " << l;
  }
  // Levels stay a permutation.
  std::vector<bool> seen(6, false);
  for (std::uint32_t l = 0; l < 6; ++l) {
    const VarIndex v = mgr.var_at_level(l);
    EXPECT_EQ(mgr.level_of(v), l);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(BddReorderTest, DoubleSwapIsStructuralIdentity) {
  Manager mgr;
  for (int i = 0; i < 4; ++i) (void)mgr.new_var();
  const Bdd f = (mgr.bdd_var(0) & mgr.bdd_var(1)) ^
                (mgr.bdd_var(2) | mgr.bdd_nvar(3));
  const NodeId id_before = f.id();
  (void)mgr.swap_adjacent_levels(1);
  (void)mgr.swap_adjacent_levels(1);
  EXPECT_EQ(f.id(), id_before);  // handle untouched by construction
  EXPECT_EQ(mgr.var_at_level(1), 1u);
  EXPECT_EQ(mgr.var_at_level(2), 2u);
  // Rebuilding the function reaches the same canonical node.
  const Bdd again = (mgr.bdd_var(0) & mgr.bdd_var(1)) ^
                    (mgr.bdd_var(2) | mgr.bdd_nvar(3));
  EXPECT_EQ(again, f);
}

TEST(BddReorderTest, OperationsAfterReorderAreCanonical) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 8; ++i) vars.push_back(mgr.new_var());
  lr::support::SplitMix64 rng(77);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 32; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      if (rng.chance(2, 3)) {
        term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
      }
    }
    f |= term;
  }
  const auto table = fingerprint(mgr, f, 8);
  apply_random_order(mgr, 78);
  EXPECT_EQ(fingerprint(mgr, f, 8), table);
  // New operations must agree with a fresh manager computing in the
  // original order (semantic differential).
  const Bdd g = f ^ mgr.bdd_var(vars[3]);
  const Bdd h = mgr.exists(g, mgr.make_cube(std::vector<VarIndex>{vars[0],
                                                                  vars[5]}));
  EXPECT_EQ(h & f, f & h);
  EXPECT_EQ(~(~h), h);
  EXPECT_TRUE((h & ~h).is_false());
  // make_cube respects the new order (no assertion failures / malformed
  // cubes): quantifying everything yields a constant.
  std::vector<VarIndex> all(vars);
  const Bdd constant = mgr.exists(f, mgr.make_cube(all));
  EXPECT_TRUE(constant.is_true() || constant.is_false());
}

TEST(BddReorderTest, SatCountInvariantUnderReordering) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(mgr.new_var());
  lr::support::SplitMix64 rng(123);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 64; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      if (rng.flip()) term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= term;
  }
  const double count = mgr.sat_count(f, 10);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    apply_random_order(mgr, seed);
    EXPECT_DOUBLE_EQ(mgr.sat_count(f, 10), count) << "order seed " << seed;
  }
}

TEST(BddReorderTest, SingleVariableIsANoOp) {
  Manager mgr;
  (void)mgr.new_var();
  const Bdd f = mgr.bdd_var(0);
  const std::size_t live = mgr.live_nodes();
  const VarIndex only[] = {0};
  EXPECT_EQ(order::apply_order(mgr, only), 0u);
  EXPECT_EQ(mgr.live_nodes(), live);
  EXPECT_EQ(f, mgr.bdd_var(0));
}

}  // namespace
}  // namespace lr::bdd
