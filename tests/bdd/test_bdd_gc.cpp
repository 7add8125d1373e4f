// Tests for reference counting, garbage collection and manager statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

TEST(BddGcTest, CollectGarbageReclaimsDeadNodes) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 16; ++i) vars.push_back(mgr.new_var());

  const std::size_t baseline = mgr.live_nodes();
  {
    // Build a large temporary function and drop it.
    Bdd f = mgr.bdd_false();
    lr::support::SplitMix64 rng(7);
    for (int i = 0; i < 200; ++i) {
      Bdd term = mgr.bdd_true();
      for (const VarIndex v : vars) {
        term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
      }
      f |= term;
    }
    EXPECT_GT(mgr.live_nodes(), baseline);
  }
  mgr.collect_garbage();
  // Everything created in the block was unreferenced.
  EXPECT_EQ(mgr.live_nodes(), baseline);
  EXPECT_GE(mgr.stats().gc_runs, 1u);
  EXPECT_GT(mgr.stats().gc_reclaimed, 0u);
}

TEST(BddGcTest, LiveFunctionsSurviveGcUnchanged) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 12; ++i) vars.push_back(mgr.new_var());

  lr::support::SplitMix64 rng(42);
  Bdd keep = mgr.bdd_false();
  for (int i = 0; i < 64; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      if (rng.flip()) {
        term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
      }
    }
    keep |= term;
  }
  const double count_before = mgr.sat_count(keep, 12);
  const std::size_t nodes_before = keep.node_count();
  auto assignment_of = [](std::uint32_t row) {
    std::array<bool, 12> assignment{};
    for (int v = 0; v < 12; ++v) assignment[v] = ((row >> v) & 1u) != 0;
    return assignment;
  };
  std::vector<bool> values_before;
  for (std::uint32_t row = 0; row < 64; ++row) {
    values_before.push_back(mgr.eval(keep, assignment_of(row)));
  }

  // Create garbage, then collect.
  for (int i = 0; i < 50; ++i) {
    Bdd junk = mgr.bdd_var(vars[0]);
    for (const VarIndex v : vars) junk ^= mgr.bdd_var(v);
  }
  mgr.collect_garbage();

  EXPECT_DOUBLE_EQ(mgr.sat_count(keep, 12), count_before);
  EXPECT_EQ(keep.node_count(), nodes_before);
  // The function must still behave identically on every spot-checked row.
  for (std::uint32_t row = 0; row < 64; ++row) {
    EXPECT_EQ(mgr.eval(keep, assignment_of(row)), values_before[row])
        << "row " << row;
  }
}

TEST(BddGcTest, OperationsAfterGcStillCanonical) {
  Manager mgr;
  const VarIndex a = mgr.new_var();
  const VarIndex b = mgr.new_var();
  const Bdd keep = mgr.bdd_var(a) & mgr.bdd_var(b);
  mgr.collect_garbage();
  // Rebuilding the same function must hit the surviving unique-table node.
  EXPECT_EQ(mgr.bdd_var(a) & mgr.bdd_var(b), keep);
  EXPECT_EQ(~(~keep), keep);
}

// --- Op-cache entries across GC ----------------------------------------------

/// A kept DNF over `vars` with enough structure to need many nodes.
Bdd random_dnf(Manager& mgr, const std::vector<VarIndex>& vars,
               std::uint64_t seed) {
  lr::support::SplitMix64 rng(seed);
  Bdd f = mgr.bdd_false();
  for (int t = 0; t < 16; ++t) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      if (rng.chance(1, 2)) {
        term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
      }
    }
    f |= term;
  }
  return f;
}

TEST(BddGcTest, CacheEntriesOnLiveNodesSurviveGc) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(mgr.new_var());
  const Bdd f = random_dnf(mgr, vars, 5);
  const Bdd g = random_dnf(mgr, vars, 6);
  const Bdd conj = f & g;
  { const Bdd junk = random_dnf(mgr, vars, 7) ^ f; }
  mgr.collect_garbage();
  ASSERT_GT(mgr.stats().gc_reclaimed, 0u) << "the GC must free something";

  // f, g and f & g all survived, so the top-level probe hits and the
  // recursion never starts.
  const std::uint64_t lookups = mgr.stats().cache_lookups;
  const std::uint64_t hits = mgr.stats().cache_hits;
  EXPECT_EQ(f & g, conj);
  EXPECT_EQ(mgr.stats().cache_lookups, lookups + 1);
  EXPECT_EQ(mgr.stats().cache_hits, hits + 1);
}

TEST(BddGcTest, CacheEntryNamingAFreedNodeIsDropped) {
  Manager mgr;
  const VarIndex a = mgr.new_var();
  const VarIndex b = mgr.new_var();
  const Bdd fa = mgr.bdd_var(a);
  const Bdd fb = mgr.bdd_var(b);
  // a ∧ b is one new node whose cofactors are terminals or fb, so the
  // recomputation below probes the cache exactly once.
  { const Bdd dead = fa & fb; }
  const std::uint64_t used_before = mgr.cache_entries_used();
  mgr.collect_garbage();
  EXPECT_EQ(mgr.stats().gc_reclaimed, 1u);
  EXPECT_EQ(mgr.cache_entries_used(), used_before - 1);

  const std::uint64_t lookups = mgr.stats().cache_lookups;
  const std::uint64_t hits = mgr.stats().cache_hits;
  const Bdd again = fa & fb;
  EXPECT_EQ(mgr.stats().cache_lookups, lookups + 1);
  EXPECT_EQ(mgr.stats().cache_hits, hits) << "stale entry answered";
  EXPECT_TRUE(mgr.eval(again, std::array<bool, 2>{true, true}));
  EXPECT_FALSE(mgr.eval(again, std::array<bool, 2>{true, false}));
}

TEST(BddGcTest, ReferencedEntryNamingAFreedNodeIsDropped) {
  // A one-entry cache is at its cap, so a hit entry refuses the next
  // colliding store; the GC must still drop it once its result dies. An
  // explicit collection keeps no hit set, so the result does die.
  Manager::Options options;
  options.cache_bytes = 16;
  Manager mgr(options);
  for (int i = 0; i < 4; ++i) (void)mgr.new_var();
  const Bdd x0 = mgr.bdd_var(0);
  const Bdd x1 = mgr.bdd_var(1);
  {
    const Bdd dead = x0 & x1;
    const std::uint64_t hits = mgr.stats().cache_hits;
    EXPECT_EQ(x0 & x1, dead);
    ASSERT_EQ(mgr.stats().cache_hits, hits + 1) << "the entry is referenced";
  }
  mgr.collect_garbage();
  EXPECT_EQ(mgr.stats().gc_reclaimed, 1u);
  EXPECT_EQ(mgr.cache_entries_used(), 0u) << "the referenced entry survived";

  // The slot is empty, so the next store neither evicts nor is refused.
  const std::uint64_t evictions = mgr.stats().cache_evictions;
  const Bdd other = mgr.bdd_var(2) & mgr.bdd_var(3);
  EXPECT_EQ(mgr.stats().cache_evictions, evictions);
  const std::uint64_t hits = mgr.stats().cache_hits;
  EXPECT_EQ(mgr.bdd_var(2) & mgr.bdd_var(3), other);
  EXPECT_EQ(mgr.stats().cache_hits, hits + 1);
}

// --- The cache's hit set across threshold collections ------------------------

constexpr std::size_t kTinyThreshold = 32;

/// A manager whose threshold collection runs as soon as 32 nodes are
/// allocated.
Manager::Options tiny_threshold() {
  Manager::Options options;
  options.gc_threshold = kTinyThreshold;
  return options;
}

/// Fills the pool with dead single-node functions of variables 2 and up (a
/// variable whose node is live adds none) until live nodes reach the
/// threshold, then enters one operation, which collects. Neither the
/// padding nor that operation touches the cache.
void run_threshold_gc(Manager& mgr) {
  const std::uint64_t runs = mgr.stats().gc_runs;
  for (VarIndex v = 2; mgr.live_nodes() < kTinyThreshold; ++v) {
    (void)mgr.bdd_var(v);
  }
  (void)(mgr.bdd_true() & mgr.bdd_true());
  ASSERT_EQ(mgr.stats().gc_runs, runs + 1);
  ASSERT_EQ(mgr.gc_log().back().trigger, GcTrigger::kThreshold);
}

/// x0 ∧ x1 is one node whose cofactors are terminals or x1, so computing
/// it probes the cache exactly once, and x0 and x1 stay live throughout.
struct HitSetFixture {
  Manager mgr{tiny_threshold()};
  Bdd x0, x1;
  NodeId conj_id = 0;

  explicit HitSetFixture(bool hit) {
    for (int i = 0; i < 48; ++i) (void)mgr.new_var();
    x0 = mgr.bdd_var(0);
    x1 = mgr.bdd_var(1);
    const Bdd conj = x0 & x1;
    conj_id = conj.id();
    if (hit) {
      const std::uint64_t hits = mgr.stats().cache_hits;
      EXPECT_EQ(x0 & x1, conj);
      EXPECT_EQ(mgr.stats().cache_hits, hits + 1);
    }
  }

  /// Recomputes x0 ∧ x1: true when its one probe hit.
  bool conj_hits() {
    const std::uint64_t lookups = mgr.stats().cache_lookups;
    const std::uint64_t hits = mgr.stats().cache_hits;
    const Bdd again = x0 & x1;
    EXPECT_EQ(mgr.stats().cache_lookups, lookups + 1);
    EXPECT_TRUE(mgr.eval(again, std::array<bool, 2>{true, true}));
    EXPECT_FALSE(mgr.eval(again, std::array<bool, 2>{true, false}));
    return mgr.stats().cache_hits == hits + 1;
  }
};

TEST(BddGcTest, ThresholdGcKeepsTheResultOfAnEntryHitSinceTheLastOne) {
  HitSetFixture t(/*hit=*/true);
  const std::uint64_t reclaimed = t.mgr.stats().gc_reclaimed;
  run_threshold_gc(t.mgr);
  // Only the padding died; x0 ∧ x1, unreferenced, was kept for its entry.
  EXPECT_EQ(t.mgr.live_nodes(), 5u);
  EXPECT_EQ(t.mgr.gc_log().back().retained, 1u);
  EXPECT_EQ(t.mgr.stats().gc_reclaimed - reclaimed, kTinyThreshold - 5);
  EXPECT_TRUE(t.conj_hits()) << "the hit entry was dropped";
  EXPECT_EQ((t.x0 & t.x1).id(), t.conj_id);
}

TEST(BddGcTest, ThresholdGcDropsAnEntryNotHitSinceTheLastOne) {
  HitSetFixture t(/*hit=*/false);
  run_threshold_gc(t.mgr);
  EXPECT_EQ(t.mgr.live_nodes(), 4u) << "the unhit result was kept";
  EXPECT_FALSE(t.conj_hits()) << "an entry naming a freed node answered";
}

TEST(BddGcTest, ThresholdGcClearsTheHitSet) {
  // The first collection keeps x0 ∧ x1 and clears the entry's reference
  // bit; nothing hits it again, so the second frees it.
  HitSetFixture t(/*hit=*/true);
  run_threshold_gc(t.mgr);
  EXPECT_EQ(t.mgr.live_nodes(), 5u);
  run_threshold_gc(t.mgr);
  EXPECT_EQ(t.mgr.live_nodes(), 4u) << "the result outlived its hit set";
  EXPECT_FALSE(t.conj_hits());
}

TEST(BddGcTest, NodesKeptForTheHitSetDoNotRaiseTheThreshold) {
  // Twelve hit entries x0 ∧ xi keep twelve dead one-node results: the
  // collection leaves 27 nodes, more than 3/4 of the threshold, but only
  // 15 without them, so the threshold stays and the next padding to 32
  // nodes collects again.
  constexpr VarIndex kHit = 12;
  Manager mgr(tiny_threshold());
  for (int i = 0; i < 48; ++i) (void)mgr.new_var();
  const Bdd x0 = mgr.bdd_var(0);
  std::vector<Bdd> kept;
  for (VarIndex v = 1; v <= kHit; ++v) kept.push_back(mgr.bdd_var(v));
  for (const Bdd& xi : kept) {
    const Bdd conj = x0 & xi;
    EXPECT_EQ(x0 & xi, conj);
  }
  run_threshold_gc(mgr);
  ASSERT_EQ(mgr.gc_log().back().retained, std::size_t{kHit});
  ASSERT_EQ(mgr.live_nodes(), 3 + 2 * std::size_t{kHit});
  run_threshold_gc(mgr);
  EXPECT_EQ(mgr.gc_log().back().retained, 0u);
  EXPECT_EQ(mgr.live_nodes(), 3 + std::size_t{kHit});
}

TEST(BddGcTest, ThresholdGcKeepsNoResultForAHitEntryWithADeadOperand) {
  Manager mgr(tiny_threshold());
  for (int i = 0; i < 48; ++i) (void)mgr.new_var();
  const Bdd x1 = mgr.bdd_var(1);
  {
    const Bdd x0 = mgr.bdd_var(0);
    const Bdd conj = x0 & x1;
    EXPECT_EQ(x0 & x1, conj);  // hit: the entry is referenced
  }
  // x0 died, so the entry can never be probed again: its result must go.
  run_threshold_gc(mgr);
  EXPECT_EQ(mgr.live_nodes(), 3u);
  EXPECT_EQ(mgr.cache_entries_used(), 0u);
}

TEST(BddGcTest, ReusedSlotNeverReturnsTheOldResult) {
  // One manager computes x ∧ s, frees x and the result, and refills the
  // freed slots with other single-node functions; a second manager that
  // never collects computes the same conjunctions afresh.
  constexpr int kVars = 8;
  Manager mgr;
  Manager fresh;
  for (int i = 0; i < kVars; ++i) {
    (void)mgr.new_var();
    (void)fresh.new_var();
  }
  const Bdd s = mgr.bdd_var(0);
  NodeId old_id = 0;
  {
    const Bdd x = mgr.bdd_var(1);
    old_id = x.id();
    const Bdd dead = x & s;  // cached as (and, old_id, s) -> dead
  }
  mgr.collect_garbage();

  // Single-node functions of the untouched variables, kept alive so every
  // freed slot is refilled; one of them lands on old_id.
  std::vector<std::pair<VarIndex, bool>> literals;
  std::vector<Bdd> kept;
  for (VarIndex v = 2; v < kVars; ++v) {
    for (const bool positive : {true, false}) {
      literals.emplace_back(v, positive);
      kept.push_back(positive ? mgr.bdd_var(v) : mgr.bdd_nvar(v));
    }
  }
  bool reused = false;
  for (const Bdd& f : kept) reused = reused || f.id() == old_id;
  ASSERT_TRUE(reused) << "the freed slot was not reused";

  const Bdd fresh_s = fresh.bdd_var(0);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const auto [v, positive] = literals[i];
    const Bdd got = kept[i] & s;
    const Bdd want =
        (positive ? fresh.bdd_var(v) : fresh.bdd_nvar(v)) & fresh_s;
    for (std::uint32_t row = 0; row < (1u << kVars); ++row) {
      std::array<bool, kVars> assignment{};
      for (int b = 0; b < kVars; ++b) assignment[b] = ((row >> b) & 1u) != 0;
      ASSERT_EQ(mgr.eval(got, assignment), fresh.eval(want, assignment))
          << "literal " << v << (positive ? "" : "'") << " row " << row;
    }
  }
}

TEST(BddGcTest, EntryWhoseThirdOperandDiedIsDropped) {
  // ite(x1, x3, x1 ∧ x2) is x1 ∧ x3: the result lives on without the third
  // operand, so only that operand's liveness can drop the entry.
  constexpr int kVars = 8;
  Manager mgr;
  for (int i = 0; i < kVars; ++i) (void)mgr.new_var();
  const Bdd f = mgr.bdd_var(1);
  const Bdd g = mgr.bdd_var(3);
  NodeId old_id = 0;
  Bdd result;
  {
    const Bdd h = f & mgr.bdd_var(2);
    old_id = h.id();
    result = f.ite(g, h);
  }
  ASSERT_EQ(result, f & g);
  mgr.collect_garbage();

  // Single-node functions of the untouched variables refill the freed
  // slots; one of them lands on old_id.
  std::vector<Bdd> kept;
  for (VarIndex v = 4; v < kVars; ++v) {
    kept.push_back(mgr.bdd_var(v));
    kept.push_back(mgr.bdd_nvar(v));
  }
  bool reused = false;
  for (const Bdd& h : kept) reused = reused || h.id() == old_id;
  ASSERT_TRUE(reused) << "the freed slot was not reused";
  for (const Bdd& h : kept) {
    EXPECT_EQ(f.ite(g, h), (f & g) | (~f & h)) << "stale entry answered";
  }
}

TEST(BddGcTest, AutomaticGcTriggersUnderPressure) {
  Manager::Options opts;
  opts.gc_threshold = 2048;  // tiny threshold to force automatic GC
  opts.initial_capacity = 256;
  Manager mgr(opts);
  std::vector<VarIndex> vars;
  for (int i = 0; i < 20; ++i) vars.push_back(mgr.new_var());

  lr::support::SplitMix64 rng(3);
  for (int round = 0; round < 40; ++round) {
    Bdd f = mgr.bdd_false();
    for (int i = 0; i < 40; ++i) {
      Bdd term = mgr.bdd_true();
      for (const VarIndex v : vars) {
        if (rng.chance(2, 3)) {
          term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
        }
      }
      f |= term;
    }
    // f dies at the end of each round.
  }
  EXPECT_GE(mgr.stats().gc_runs, 1u);
}

TEST(BddGcTest, StatsCountersAreMonotone) {
  Manager mgr;
  const VarIndex a = mgr.new_var();
  const VarIndex b = mgr.new_var();
  const auto& stats = mgr.stats();
  const auto created0 = stats.created_nodes;
  const Bdd f = mgr.bdd_var(a) ^ mgr.bdd_var(b);
  EXPECT_GT(stats.created_nodes, created0);
  const auto lookups0 = stats.cache_lookups;
  const Bdd g = mgr.bdd_var(a) ^ mgr.bdd_var(b);
  EXPECT_EQ(f, g);
  EXPECT_GE(stats.cache_lookups, lookups0);
  EXPECT_GE(stats.peak_nodes, 2u);
}

TEST(BddGcTest, HandlesAcrossManyGcCycles) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 8; ++i) vars.push_back(mgr.new_var());
  const Bdd anchor = mgr.bdd_var(vars[0]) | mgr.bdd_var(vars[7]);
  for (int cycle = 0; cycle < 10; ++cycle) {
    {
      Bdd junk = anchor;
      for (const VarIndex v : vars) junk = junk ^ mgr.bdd_var(v);
    }
    mgr.collect_garbage();
    EXPECT_EQ(anchor, mgr.bdd_var(vars[0]) | mgr.bdd_var(vars[7]));
  }
}

TEST(BddGcTest, NodePoolGrowsBeyondInitialCapacity) {
  Manager::Options opts;
  opts.initial_capacity = 64;
  opts.gc_threshold = 1u << 20;  // effectively disable GC for this test
  Manager mgr(opts);
  std::vector<VarIndex> vars;
  for (int i = 0; i < 14; ++i) vars.push_back(mgr.new_var());
  // Build a function with far more than 64 nodes.
  Bdd f = mgr.bdd_false();
  lr::support::SplitMix64 rng(11);
  for (int i = 0; i < 100; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= term;
  }
  EXPECT_GT(mgr.live_nodes(), 64u);
  EXPECT_FALSE(f.is_false());
}

TEST(BddGcTest, PoolGrowthKeepsEveryNodeFindable) {
  // Each pool growth rehashes the unique table while the slot it just
  // pushed is still blank. A node the rehash loses from its chain stays
  // live but unfindable, so rebuilding its function makes a duplicate and
  // `==` (an id comparison) fails on equal functions. Cubes conjoined
  // deepest-first leave no dead intermediates: every node in the table
  // belongs to a kept cube and is looked up again by the rebuild.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Manager::Options opts;
    opts.initial_capacity = 64;
    Manager mgr(opts);
    std::vector<VarIndex> vars;
    for (int i = 0; i < 24; ++i) vars.push_back(mgr.new_var());
    const auto random_cube = [&](lr::support::SplitMix64 rng) {
      Bdd cube = mgr.bdd_true();
      for (auto v = vars.rbegin(); v != vars.rend(); ++v) {
        if (rng.flip()) {
          cube = (rng.flip() ? mgr.bdd_var(*v) : mgr.bdd_nvar(*v)) & cube;
        }
      }
      return cube;
    };
    std::vector<lr::support::SplitMix64> cube_seeds;
    lr::support::SplitMix64 rng(seed);
    for (int i = 0; i < 4000; ++i) cube_seeds.emplace_back(rng.next());
    std::vector<Bdd> built;
    for (const auto& cube_seed : cube_seeds) {
      built.push_back(random_cube(cube_seed));
    }
    EXPECT_GT(mgr.live_nodes(), 16 * opts.initial_capacity);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < cube_seeds.size(); ++i) {
      if (random_cube(cube_seeds[i]) != built[i]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(BddGcTest, ChunkedPoolKeepsFunctionsAcrossGcReuse) {
  // The pool grows in chunks of 2^16 nodes. Drive it past three chunk
  // boundaries with threshold GCs running, free nodes in every chunk, and
  // let the free list hand them out again. Each kept handle must keep its
  // function, and the engine its invariants.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  constexpr int kVars = 20;
  Manager::Options opts;
  opts.gc_threshold = 1u << 15;
  Manager mgr(opts);
  std::vector<VarIndex> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(mgr.new_var());

  // A random DNF, rebuilt identically from its seed; its intermediate
  // disjunctions die and leave garbage for the threshold GCs.
  const auto build = [&](std::uint64_t seed) {
    lr::support::SplitMix64 rng(seed);
    Bdd f = mgr.bdd_false();
    for (int t = 0; t < 6; ++t) {
      Bdd term = mgr.bdd_true();
      for (const VarIndex v : vars) {
        if (rng.chance(1, 2)) {
          term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
        }
      }
      f |= term;
    }
    return f;
  };
  std::vector<std::array<bool, kVars>> samples(32);
  lr::support::SplitMix64 sample_rng(99);
  for (auto& sample : samples) {
    for (bool& bit : sample) bit = sample_rng.flip();
  }
  struct Kept {
    std::uint64_t seed;
    Bdd f;
    double count;
    std::vector<bool> values;
  };
  const auto keep = [&](std::uint64_t seed) {
    Kept k{seed, build(seed), 0.0, {}};
    k.count = mgr.sat_count(k.f, kVars);
    for (const auto& sample : samples) {
      k.values.push_back(mgr.eval(k.f, sample));
    }
    return k;
  };
  const auto expect_unchanged = [&](const std::vector<Kept>& all,
                                    const char* when) {
    for (const Kept& k : all) {
      ASSERT_EQ(mgr.sat_count(k.f, kVars), k.count)
          << when << ", seed " << k.seed;
      for (std::size_t s = 0; s < samples.size(); ++s) {
        ASSERT_EQ(mgr.eval(k.f, samples[s]), k.values[s])
            << when << ", seed " << k.seed << ", sample " << s;
      }
    }
  };

  std::vector<Kept> kept;
  std::uint64_t next_seed = 1;
  while (mgr.stats().peak_nodes <= 3 * kChunk + 2) {
    ASSERT_LT(next_seed, 100000u) << "the pool stopped growing";
    kept.push_back(keep(next_seed++));
  }
  ASSERT_NO_THROW(mgr.check_invariants());

  // Drop every other function: its nodes sit in every chunk.
  std::vector<Kept> halved;
  for (std::size_t i = 0; i < kept.size(); i += 2) {
    halved.push_back(std::move(kept[i]));
  }
  kept = std::move(halved);
  const auto threshold_gcs = [&mgr] {
    std::size_t n = 0;
    for (const GcRecord& r : mgr.gc_log()) {
      n += r.trigger == GcTrigger::kThreshold ? 1 : 0;
    }
    return n;
  };
  const std::size_t gcs_before = threshold_gcs();
  std::vector<std::size_t> chunks_reused;
  for (int i = 0; i < 2000 || threshold_gcs() == gcs_before; ++i) {
    ASSERT_LT(i, 100000) << "no threshold GC ran";
    const bool after_gc = threshold_gcs() > gcs_before;
    kept.push_back(keep(next_seed++));
    if (after_gc) chunks_reused.push_back(kept.back().f.id() / kChunk);
  }
  std::sort(chunks_reused.begin(), chunks_reused.end());
  chunks_reused.erase(std::unique(chunks_reused.begin(), chunks_reused.end()),
                      chunks_reused.end());
  EXPECT_GE(chunks_reused.size(), 2u)
      << "new roots after the GC should land in freed slots of several chunks";
  ASSERT_NO_THROW(mgr.check_invariants());
  expect_unchanged(kept, "after GC reuse");
  // Canonicity: a rebuild finds the kept node, wherever in the pool it sits.
  for (std::size_t i = 0; i < kept.size(); i += 97) {
    EXPECT_EQ(build(kept[i].seed), kept[i].f) << "seed " << kept[i].seed;
  }
  ASSERT_NO_THROW(mgr.check_invariants());
}

}  // namespace
}  // namespace lr::bdd
