// Tests for the operation cache's packed 16-byte entries and the limits
// that keep them unambiguous: 28-bit node ids, a 15-bit op code shared by
// the fixed ops and registered permutations, and a reference bit that
// gives a hit entry a second chance once the cache is at its cap.

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
using detail::kCacheRefBit;
using detail::kMaxNodes;
using detail::pack_entry;
using detail::same_key;

/// `e` with its reference bit set.
CacheEntry referenced(CacheEntry e) {
  e.a |= kCacheRefBit;
  return e;
}

TEST(OpCacheEntryTest, PackRoundTripsAtTheLimits) {
  const NodeId top = static_cast<NodeId>(kMaxNodes - 1);
  for (const std::uint32_t op : {0x0001u, 0x4000u, 0x7fffu, 0x1234u}) {
    const CacheEntry e = pack_entry(op, top, 0, top, 1);
    for (const CacheEntry& x : {e, referenced(e)}) {
      EXPECT_EQ(entry_op(x), op);
      EXPECT_EQ(entry_id(x.a), top);
      EXPECT_EQ(entry_id(x.b), 0u);
      EXPECT_EQ(entry_id(x.c), top);
      EXPECT_EQ(entry_id(x.result), 1u);
    }
    EXPECT_EQ(e.a & kCacheRefBit, 0u) << "packed entries are unreferenced";
  }
  EXPECT_EQ(entry_op(CacheEntry{}), 0u) << "all zeros is the empty entry";
}

TEST(OpCacheEntryTest, PackRoundTripsRandomKeys) {
  support::SplitMix64 rng(11);
  for (int i = 0; i < 100000; ++i) {
    const auto op = static_cast<std::uint32_t>(rng.below(0x8000));
    const auto id = [&rng] {
      return static_cast<NodeId>(rng.below(kMaxNodes));
    };
    const NodeId a = id(), b = id(), c = id(), r = id();
    const CacheEntry e = pack_entry(op, a, b, c, r);
    const CacheEntry hit = referenced(e);
    for (const CacheEntry& x : {e, hit}) {
      ASSERT_EQ(entry_op(x), op);
      ASSERT_EQ(entry_id(x.a), a);
      ASSERT_EQ(entry_id(x.b), b);
      ASSERT_EQ(entry_id(x.c), c);
      ASSERT_EQ(entry_id(x.result), r);
    }
    // The key ignores the result and the reference bit, and sees every op
    // and operand bit.
    ASSERT_TRUE(same_key(e, pack_entry(op, a, b, c, id())));
    ASSERT_TRUE(same_key(hit, pack_entry(op, a, b, c, id())));
    ASSERT_TRUE(same_key(e, hit));
    ASSERT_FALSE(same_key(e, pack_entry(op ^ 1u, a, b, c, r)));
    ASSERT_FALSE(same_key(hit, pack_entry(op ^ 0x4000u, a, b, c, r)));
    ASSERT_FALSE(same_key(e, pack_entry(op, a, b, c ^ 1u, r)));
  }
}

// --- Second chance ---------------------------------------------------------

/// What one x_i ∧ x_j did to the cache. Both operands are single-variable
/// nodes, so the conjunction probes the cache exactly once.
struct Probe {
  bool hit;
  bool evicted;
};
Probe conjoin(Manager& mgr, VarIndex i, VarIndex j) {
  const ManagerStats before = mgr.stats();
  const Bdd r = mgr.bdd_var(i) & mgr.bdd_var(j);
  const ManagerStats& after = mgr.stats();
  EXPECT_EQ(after.cache_lookups, before.cache_lookups + 1);
  return {after.cache_hits > before.cache_hits,
          after.cache_evictions > before.cache_evictions};
}

TEST(OpCacheSecondChanceTest, OneEntryCacheSparesAHitEntryOnce) {
  Manager::Options options;
  options.cache_bytes = 16;  // one entry: every key shares slot 0
  Manager mgr(options);
  for (int i = 0; i < 4; ++i) (void)mgr.new_var();
  ASSERT_EQ(mgr.cache_entry_count(), mgr.cache_entry_cap());

  // x0 ∧ x1 is never hit, so the next store replaces it.
  const Probe first = conjoin(mgr, 0, 1);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.evicted) << "the slot was empty";
  const Probe replace = conjoin(mgr, 2, 3);
  EXPECT_FALSE(replace.hit);
  EXPECT_TRUE(replace.evicted);
  EXPECT_FALSE(conjoin(mgr, 0, 1).hit) << "x0 ∧ x1 was replaced";

  // x0 ∧ x1 is resident again; hit, it survives one colliding store...
  EXPECT_TRUE(conjoin(mgr, 0, 1).hit);
  const std::uint64_t evictions = mgr.stats().cache_evictions;
  const Probe refused = conjoin(mgr, 2, 3);
  EXPECT_FALSE(refused.hit);
  EXPECT_EQ(mgr.stats().cache_evictions, evictions + 1)
      << "the refused newcomer is a lost result";
  // ... which spent its chance: the store after that replaces it.
  EXPECT_FALSE(conjoin(mgr, 2, 3).hit) << "the newcomer was dropped";
  EXPECT_EQ(mgr.stats().cache_evictions, evictions + 2);
  EXPECT_TRUE(conjoin(mgr, 2, 3).hit);
  EXPECT_FALSE(conjoin(mgr, 0, 1).hit) << "x0 ∧ x1 was replaced";
}

/// Op-cache entries of a manager whose cap, 5120 entries, is above its
/// first size, 4096, before and after a collection.
struct Residents {
  std::size_t used;  ///< every entry
  std::size_t kept;  ///< the entries of kept conjunctions
};

/// Conjunctions over the first 48 variables are kept alive (and, when
/// `hit`, probed again right after they are stored, which sets their
/// reference bits); then conjunctions over the other variables, which are
/// dropped, are stored until the cache grows onto its cap (`grow`) or 600
/// of them are. A collection then frees the dropped ones, so the entries
/// left are those of kept conjunctions.
Residents fill_and_collect(bool hit, bool grow) {
  constexpr VarIndex kKept = 48;
  constexpr VarIndex kVars = kKept + 100;
  Manager::Options options;
  options.cache_bytes = 5120 * 16;
  Manager mgr(options);
  for (VarIndex v = 0; v < kVars; ++v) (void)mgr.new_var();
  std::vector<Bdd> keep;
  for (VarIndex v = 0; v < kKept; ++v) keep.push_back(mgr.bdd_var(v));
  for (VarIndex i = 0; i < kKept; ++i) {
    for (VarIndex j = i + 1; j < kKept; ++j) {
      keep.push_back(keep[i] & keep[j]);
      if (hit) {
        EXPECT_TRUE(conjoin(mgr, i, j).hit);
      }
    }
  }
  EXPECT_EQ(mgr.stats().cache_resizes, 0u) << "the kept keys fit";
  std::size_t dropped = 0;
  const auto more = [&] {
    return grow ? mgr.stats().cache_resizes == 0 : dropped < 600;
  };
  for (VarIndex i = kKept; i < kVars && more(); ++i) {
    for (VarIndex j = i + 1; j < kVars && more(); ++j, ++dropped) {
      (void)(mgr.bdd_var(i) & mgr.bdd_var(j));
    }
  }
  EXPECT_EQ(mgr.stats().cache_resizes, grow ? 1u : 0u);
  EXPECT_EQ(mgr.cache_entry_count(), grow ? 5120u : 4096u);
  const std::size_t used = mgr.cache_entries_used();
  mgr.collect_garbage();
  return {used, mgr.cache_entries_used()};
}

// The managers compared below store the same keys in the same order; only
// the reference bits differ.

TEST(OpCacheSecondChanceTest, BelowTheCapAStoreAlwaysReplaces) {
  const Residents hot = fill_and_collect(true, false);
  const Residents cold = fill_and_collect(false, false);
  EXPECT_LT(hot.kept, hot.used) << "some dropped entries were resident";
  EXPECT_EQ(hot.used, cold.used);
  EXPECT_EQ(hot.kept, cold.kept) << "a referenced entry refused a store";
}

TEST(OpCacheSecondChanceTest, GrowthOntoTheCapKeepsTheReferencedEntry) {
  // Both managers hold the same keys in the same slots when the cache
  // grows. The step onto the cap is not a doubling, so some pairs of
  // entries meet in one slot and one of each pair is lost.
  const Residents hot = fill_and_collect(true, true);
  const Residents cold = fill_and_collect(false, true);
  EXPECT_EQ(hot.used, cold.used) << "as many entries were lost";
  // With no bit set, the entry already in the slot stays; with the kept
  // entries referenced, one of them also wins where it moves in onto a
  // dropped conjunction.
  EXPECT_GT(hot.kept, cold.kept);
}

// --- Limits ----------------------------------------------------------------

TEST(OpCacheLimitTest, PermutationsStopAtTheOpLimit) {
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

}  // namespace
}  // namespace lr::bdd
