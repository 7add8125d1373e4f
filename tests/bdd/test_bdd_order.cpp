// Tests for the static-order layer over the BDD manager: applying a target
// level permutation through adjacent swaps and restoring the creation
// order.

#include <gtest/gtest.h>

#include <stdexcept>
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
  for (std::uint32_t row = 0; row < (1u << n); ++row) {
    bool buf[16];
    for (std::uint32_t v = 0; v < n; ++v) buf[v] = ((row >> v) & 1u) != 0;
    table.push_back(mgr.eval(f, std::span<const bool>(buf, n)));
  }
  return table;
}

Bdd random_function(Manager& mgr, std::uint32_t n, std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 24; ++i) {
    Bdd term = mgr.bdd_true();
    for (VarIndex v = 0; v < n; ++v) {
      if (rng.flip()) term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= term;
  }
  return f;
}

TEST(BddOrderTest, ApplyOrderRealizesTheTargetPermutation) {
  Manager mgr;
  for (int i = 0; i < 6; ++i) (void)mgr.new_var();
  const Bdd f = random_function(mgr, 6, 11);
  const auto table = fingerprint(mgr, f, 6);

  const std::vector<VarIndex> target = {3, 1, 5, 0, 4, 2};
  const std::size_t swaps = order::apply_order(mgr, target);
  EXPECT_GT(swaps, 0u);
  for (std::uint32_t level = 0; level < 6; ++level) {
    EXPECT_EQ(mgr.var_at_level(level), target[level]) << "level " << level;
    EXPECT_EQ(mgr.level_of(target[level]), level);
  }
  EXPECT_EQ(fingerprint(mgr, f, 6), table) << "handles must keep semantics";

  // Applying the order the manager already has costs zero swaps.
  EXPECT_EQ(order::apply_order(mgr, target), 0u);
}

TEST(BddOrderTest, RestoreCreationOrderIsTheIdentityPermutation) {
  Manager mgr;
  for (int i = 0; i < 5; ++i) (void)mgr.new_var();
  const Bdd f = random_function(mgr, 5, 7);
  const auto table = fingerprint(mgr, f, 5);
  (void)order::apply_order(mgr, std::vector<VarIndex>{4, 2, 0, 3, 1});
  (void)order::restore_creation_order(mgr);
  for (std::uint32_t level = 0; level < 5; ++level) {
    EXPECT_EQ(mgr.var_at_level(level), level);
  }
  EXPECT_EQ(fingerprint(mgr, f, 5), table);
  EXPECT_EQ(order::restore_creation_order(mgr), 0u) << "already restored";
}

TEST(BddOrderTest, ApplyOrderRejectsNonPermutations) {
  Manager mgr;
  for (int i = 0; i < 4; ++i) (void)mgr.new_var();
  // Wrong size.
  EXPECT_THROW((void)order::apply_order(mgr, std::vector<VarIndex>{0, 1, 2}),
               std::invalid_argument);
  // Duplicate entry.
  EXPECT_THROW(
      (void)order::apply_order(mgr, std::vector<VarIndex>{0, 1, 2, 2}),
      std::invalid_argument);
  // Out-of-range entry.
  EXPECT_THROW(
      (void)order::apply_order(mgr, std::vector<VarIndex>{0, 1, 2, 9}),
      std::invalid_argument);
  // The failed calls must not have moved anything.
  for (std::uint32_t level = 0; level < 4; ++level) {
    EXPECT_EQ(mgr.var_at_level(level), level);
  }
}

}  // namespace
}  // namespace lr::bdd
