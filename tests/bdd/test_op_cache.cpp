// Tests for the operation cache's packed 16-byte entries and the limits
// that keep them unambiguous: 28-bit node ids, a 16-bit op code shared by
// the fixed ops, registered permutations and the three-conjunct
// and_exists's interned root cubes.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bdd/bdd.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

using detail::CacheEntry;
using detail::entry_id;
using detail::entry_op;
using detail::kMaxNodes;
using detail::pack_entry;
using detail::same_key;

TEST(OpCacheEntryTest, PackRoundTripsAtTheLimits) {
  const NodeId top = static_cast<NodeId>(kMaxNodes - 1);
  for (const std::uint32_t op : {0x0001u, 0x8000u, 0xffffu, 0x1234u}) {
    const CacheEntry e = pack_entry(op, top, 0, top, 1);
    EXPECT_EQ(entry_op(e), op);
    EXPECT_EQ(entry_id(e.a), top);
    EXPECT_EQ(entry_id(e.b), 0u);
    EXPECT_EQ(entry_id(e.c), top);
    EXPECT_EQ(entry_id(e.result), 1u);
  }
  EXPECT_EQ(entry_op(CacheEntry{}), 0u) << "all zeros is the empty entry";
}

TEST(OpCacheEntryTest, PackRoundTripsRandomKeys) {
  support::SplitMix64 rng(11);
  for (int i = 0; i < 100000; ++i) {
    const auto op = static_cast<std::uint32_t>(rng.below(0x10000));
    const auto id = [&rng] {
      return static_cast<NodeId>(rng.below(kMaxNodes));
    };
    const NodeId a = id(), b = id(), c = id(), r = id();
    const CacheEntry e = pack_entry(op, a, b, c, r);
    ASSERT_EQ(entry_op(e), op);
    ASSERT_EQ(entry_id(e.a), a);
    ASSERT_EQ(entry_id(e.b), b);
    ASSERT_EQ(entry_id(e.c), c);
    ASSERT_EQ(entry_id(e.result), r);
    // The key ignores the result and sees every op and operand bit.
    ASSERT_TRUE(same_key(e, pack_entry(op, a, b, c, id())));
    ASSERT_FALSE(same_key(e, pack_entry(op ^ 1u, a, b, c, r)));
    ASSERT_FALSE(same_key(e, pack_entry(op ^ 0x8000u, a, b, c, r)));
    ASSERT_FALSE(same_key(e, pack_entry(op, a, b, c ^ 1u, r)));
  }
}

TEST(OpCacheLimitTest, PermutationsStopBeforeTheCubeOpCodes) {
  Manager mgr;
  const VarIndex v = mgr.new_var();
  const VarIndex identity[1] = {v};
  // Op codes 12 .. 0x7fff: one per permutation.
  for (PermId i = 0; i < 0x8000 - 12; ++i) {
    ASSERT_EQ(mgr.register_permutation(identity), i);
  }
  EXPECT_THROW((void)mgr.register_permutation(identity), std::length_error);
  const Bdd x = mgr.bdd_var(v);
  EXPECT_EQ(mgr.permute(x, 0x8000 - 13), x) << "the last one still works";
}

TEST(OpCacheLimitTest, AndExistsInternsAtMost32768Cubes) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 16; ++i) vars.push_back(mgr.new_var());
  const Bdd f = mgr.bdd_var(vars[0]) | mgr.bdd_var(vars[15]);
  const Bdd g = mgr.bdd_nvar(vars[1]) | mgr.bdd_var(vars[14]);
  const Bdd h = mgr.bdd_var(vars[2]);
  const auto cube_of = [&](std::uint32_t bits) {
    std::vector<VarIndex> in;
    for (std::uint32_t b = 0; b < 16; ++b) {
      if (((bits >> b) & 1u) != 0) in.push_back(vars[b]);
    }
    return mgr.make_cube(in);
  };
  // Cube 0 is `true`; distinct bit patterns are distinct cubes.
  for (std::uint32_t i = 0; i < 0x8000; ++i) {
    (void)mgr.and_exists(f, g, h, cube_of(i));
  }
  EXPECT_THROW((void)mgr.and_exists(f, g, h, cube_of(0x8000)),
               std::length_error);
  // Interned cubes keep working, and give the right answer.
  const Bdd cube = cube_of(0x1234);
  EXPECT_EQ(mgr.and_exists(f, g, h, cube), mgr.exists(f & g & h, cube));
}

TEST(OpCacheAndExists3Test, RootCubesSharingASuffixAcrossAGc) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(mgr.new_var());
  const auto lit = [&](int i, bool positive) {
    return positive ? mgr.bdd_var(vars[i]) : mgr.bdd_nvar(vars[i]);
  };
  // Each conjunct ties a low variable to a shared suffix variable, so the
  // recursion reaches (f', g', h', suffix) calls under both roots.
  const Bdd f = (lit(0, true) & lit(5, true)) | (lit(0, false) & lit(7, false));
  const Bdd g = (lit(1, true) ^ lit(5, true)) | lit(8, true);
  const Bdd h = (lit(2, false) & lit(7, true)) | (lit(2, true) & lit(9, true));
  const std::vector<VarIndex> root_a = {vars[0], vars[5], vars[7], vars[9]};
  const std::vector<VarIndex> root_b = {vars[1], vars[5], vars[7], vars[9]};
  const Bdd want_a = mgr.exists(f & g & h, mgr.make_cube(root_a));
  const Bdd want_b = mgr.exists(f & g & h, mgr.make_cube(root_b));
  ASSERT_NE(want_a, want_b) << "the roots must quantify differently";

  EXPECT_EQ(mgr.and_exists(f, g, h, mgr.make_cube(root_a)), want_a);
  EXPECT_EQ(mgr.and_exists(f, g, h, mgr.make_cube(root_b)), want_b);
  {
    const Bdd junk = (f ^ g) | (g ^ h);  // dead nodes for the GC to free
  }
  mgr.collect_garbage();
  ASSERT_GT(mgr.stats().gc_reclaimed, 0u);

  // The cubes' handles are gone, yet the manager kept them: rebuilding one
  // finds the same node, and the top-level probe hits without recursing.
  const std::uint64_t lookups = mgr.stats().cache_lookups;
  const std::uint64_t hits = mgr.stats().cache_hits;
  EXPECT_EQ(mgr.and_exists(f, g, h, mgr.make_cube(root_b)), want_b);
  EXPECT_EQ(mgr.stats().cache_lookups, lookups + 1);
  EXPECT_EQ(mgr.stats().cache_hits, hits + 1);
  EXPECT_EQ(mgr.and_exists(h, f, g, mgr.make_cube(root_a)), want_a);
  // The conjuncts in another order give the same answer.
  EXPECT_EQ(mgr.and_exists(g, h, f, mgr.make_cube(root_b)), want_b);
}

}  // namespace
}  // namespace lr::bdd
