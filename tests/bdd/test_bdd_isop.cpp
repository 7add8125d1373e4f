// Property tests for Manager::isop: random intervals
// lower ≤ upper over ten variables, checked on truth tables. The cover must
// lie between the bounds, every cube must cover a minterm of `lower` that
// no other cube covers, lower == upper must give back the function, and the
// terminal bounds must give the empty cover and the one empty cube.

#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bdd/bdd.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

constexpr std::uint32_t kNumVars = 10;
constexpr std::uint32_t kRows = 1u << kNumVars;
using Table = std::bitset<kRows>;  // bit r = value on assignment r

class BddIsopTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  BddIsopTest() {
    for (std::uint32_t i = 0; i < kNumVars; ++i) (void)mgr_.new_var();
  }

  /// The function whose truth table is `t`, by Shannon expansion over the
  /// variables from `v` down (rows agree on the variables above `v`).
  Bdd from_table(const Table& t, std::uint32_t v = kNumVars,
                 std::uint32_t base = 0) {
    if (v == 0) return t[base] ? mgr_.bdd_true() : mgr_.bdd_false();
    const Bdd lo = from_table(t, v - 1, base);
    const Bdd hi = from_table(t, v - 1, base | (1u << (v - 1)));
    return mgr_.bdd_var(v - 1).ite(hi, lo);
  }

  /// A random table with about `percent` of its rows set.
  static Table random_table(support::SplitMix64& rng, std::uint64_t percent) {
    Table t;
    for (std::uint32_t r = 0; r < kRows; ++r) t[r] = rng.chance(percent, 100);
    return t;
  }

  /// The rows a cube (per-variable -1/0/1) covers.
  static Table cube_table(std::span<const signed char> cube) {
    Table t;
    for (std::uint32_t r = 0; r < kRows; ++r) {
      bool inside = true;
      for (std::uint32_t v = 0; v < kNumVars && inside; ++v) {
        inside = cube[v] < 0 || static_cast<std::uint32_t>(cube[v]) ==
                                    ((r >> v) & 1u);
      }
      t[r] = inside;
    }
    return t;
  }

  std::vector<Table> cover(const Table& lower, const Table& upper) {
    std::vector<Table> cubes;
    mgr_.isop(from_table(lower), from_table(upper))
        .foreach_cube([&](std::span<const signed char> cube) {
          ASSERT_EQ(cube.size(), kNumVars);
          cubes.push_back(cube_table(cube));
        });
    return cubes;
  }

  /// lower ≤ ∪ cubes ≤ upper, and every cube covers a row of `lower` that
  /// no other cube covers.
  static void expect_irredundant_cover(const std::vector<Table>& cubes,
                                       const Table& lower,
                                       const Table& upper) {
    Table covered;
    std::vector<int> times(kRows, 0);
    for (const Table& c : cubes) {
      covered |= c;
      for (std::uint32_t r = 0; r < kRows; ++r) times[r] += c[r] ? 1 : 0;
    }
    EXPECT_EQ(covered & lower, lower) << "a row of lower is not covered";
    EXPECT_EQ(covered & ~upper, Table()) << "a cube leaves upper";
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      bool essential = false;
      for (std::uint32_t r = 0; r < kRows && !essential; ++r) {
        essential = cubes[i][r] && lower[r] && times[r] == 1;
      }
      EXPECT_TRUE(essential) << "cube " << i << " is redundant";
    }
  }

  Manager mgr_;
};

TEST_P(BddIsopTest, CoverLiesBetweenTheBoundsAndIsIrredundant) {
  support::SplitMix64 rng(GetParam());
  for (const std::uint64_t percent : {5, 30, 60}) {
    const Table lower = random_table(rng, percent);
    const Table upper = lower | random_table(rng, percent);
    expect_irredundant_cover(cover(lower, upper), lower, upper);
  }
}

TEST_P(BddIsopTest, EqualBoundsGiveTheFunctionBack) {
  support::SplitMix64 rng(GetParam());
  const Table f = random_table(rng, 40);
  const std::vector<Table> cubes = cover(f, f);
  Table covered;
  for (const Table& c : cubes) covered |= c;
  EXPECT_EQ(covered, f);
  expect_irredundant_cover(cubes, f, f);
}

// The cover no longer refers to the manager: a second walk, after the
// bounds are gone and collected, gives the same cubes in the same order.
TEST_P(BddIsopTest, CoverWalksTheSameCubesAfterTheBoundsAreCollected) {
  support::SplitMix64 rng(GetParam());
  const Table lower = random_table(rng, 30);
  const Table upper = lower | random_table(rng, 30);
  const IsopCover cover = mgr_.isop(from_table(lower), from_table(upper));
  std::vector<std::vector<signed char>> first;
  cover.foreach_cube([&](std::span<const signed char> cube) {
    first.emplace_back(cube.begin(), cube.end());
  });
  mgr_.collect_garbage();
  std::vector<std::vector<signed char>> second;
  cover.foreach_cube([&](std::span<const signed char> cube) {
    second.emplace_back(cube.begin(), cube.end());
  });
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddIsopTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(BddIsopTerminalTest, TerminalBounds) {
  Manager mgr;
  for (int i = 0; i < 3; ++i) (void)mgr.new_var();
  std::vector<std::vector<signed char>> cubes;
  const auto collect = [&](std::span<const signed char> cube) {
    cubes.emplace_back(cube.begin(), cube.end());
  };
  const Bdd x = mgr.bdd_var(1);

  // lower = false: the empty cover, whatever the upper bound.
  for (const Bdd& upper : {mgr.bdd_false(), x, mgr.bdd_true()}) {
    mgr.isop(mgr.bdd_false(), upper).foreach_cube(collect);
    EXPECT_TRUE(cubes.empty());
  }
  // upper = true and lower satisfiable: the one empty cube.
  for (const Bdd& lower : {x, mgr.bdd_true()}) {
    cubes.clear();
    mgr.isop(lower, mgr.bdd_true()).foreach_cube(collect);
    ASSERT_EQ(cubes.size(), 1u);
    EXPECT_EQ(cubes[0], (std::vector<signed char>{-1, -1, -1}));
  }
  // A literal between false and true is its own cover.
  cubes.clear();
  mgr.isop(x, x).foreach_cube(collect);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0], (std::vector<signed char>{-1, 1, -1}));
}

TEST(BddIsopTerminalTest, LowerOutsideUpperThrows) {
  Manager mgr;
  for (int i = 0; i < 3; ++i) (void)mgr.new_var();
  const Bdd x = mgr.bdd_var(0);
  const Bdd y = mgr.bdd_var(2);
  EXPECT_THROW((void)mgr.isop(x, y), std::invalid_argument);
  EXPECT_THROW((void)mgr.isop(mgr.bdd_true(), x), std::invalid_argument);
  EXPECT_THROW((void)mgr.isop(x, mgr.bdd_false()), std::invalid_argument);
}

}  // namespace
}  // namespace lr::bdd
