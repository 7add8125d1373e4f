// Differential tests: the same computation executed in managers with very
// different cache and pool geometries (one small enough to force many
// garbage collections, the default growing cache under the same GC
// pressure so resizes and collections interleave, a cap that is not a
// power of two so the last resize is not a doubling, and a one-entry cache
// whose every miss meets the second-chance rule) must produce
// semantically identical results. This guards against operation-cache
// aliasing, in-place cache rehashing and GC interactions that unit tests
// cannot reach.

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

constexpr std::uint32_t kVars = 16;

struct WorkloadRun {
  std::vector<double> fingerprint;
  ManagerStats stats;
};

/// Deterministically replays a random workload of boolean, quantifier and
/// permutation operations and returns a fingerprint of every intermediate
/// result (its satisfying-assignment count — semantic, so node ids don't
/// matter) plus the manager's final counters.
WorkloadRun run_workload(const Manager::Options& options, std::uint64_t seed) {
  Manager mgr(options);
  std::vector<VarIndex> vars;
  for (std::uint32_t i = 0; i < kVars; ++i) vars.push_back(mgr.new_var());
  std::vector<VarIndex> evens;
  for (std::uint32_t i = 0; i < kVars; i += 2) evens.push_back(vars[i]);
  const Bdd cube = mgr.make_cube(evens);
  // Swaps each even variable with its odd neighbour.
  std::vector<VarIndex> swap(kVars);
  for (std::uint32_t i = 0; i < kVars; ++i) swap[i] = vars[i ^ 1u];
  const PermId perm = mgr.register_permutation(swap);

  lr::support::SplitMix64 rng(seed);
  std::vector<Bdd> pool{mgr.bdd_true(), mgr.bdd_false()};
  for (const VarIndex v : vars) pool.push_back(mgr.bdd_var(v));
  // Random DNFs give the operands enough structure that the workload
  // creates thousands of nodes, so it collects garbage and fills the cache.
  for (int f = 0; f < 8; ++f) {
    Bdd dnf = mgr.bdd_false();
    for (int t = 0; t < 24; ++t) {
      Bdd term = mgr.bdd_true();
      for (int l = 0; l < 6; ++l) {
        const VarIndex v = vars[rng.below(kVars)];
        term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
      }
      dnf |= term;
    }
    pool.push_back(std::move(dnf));
  }

  std::vector<double> fingerprint;
  for (int step = 0; step < 300; ++step) {
    const Bdd& a = pool[rng.below(pool.size())];
    const Bdd& b = pool[rng.below(pool.size())];
    const Bdd& c = pool[rng.below(pool.size())];
    Bdd result;
    switch (rng.below(12)) {
      case 0: result = a & b; break;
      case 1: result = a | b; break;
      case 2: result = a ^ b; break;
      case 3: result = ~a; break;
      case 4: result = a.minus(b); break;
      case 5: result = mgr.exists(a, cube); break;
      case 6: result = mgr.and_exists(a, b, cube); break;
      case 7: result = a.ite(b, c); break;
      case 8: result = mgr.forall(a, cube); break;
      case 9: result = mgr.permute(a, perm); break;
      case 10:
        // Decision ops leave no BDD; fingerprint the answer and keep `a`.
        fingerprint.push_back(a.leq(b) ? 1.0 : 0.0);
        result = a;
        break;
      default:
        fingerprint.push_back(a.disjoint(b) ? 1.0 : 0.0);
        result = a;
        break;
    }
    fingerprint.push_back(mgr.sat_count(result, kVars));
    pool.push_back(std::move(result));
    if (pool.size() > 40) {
      // Drop old entries so dead nodes accumulate and GC has work to do.
      pool.erase(pool.begin() + 2, pool.begin() + 20);
    }
  }
  return {std::move(fingerprint), mgr.stats()};
}

class BddDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddDifferentialTest, GeometriesAgree) {
  Manager::Options big;
  big.cache_bytes = std::size_t{16} << 20;
  big.initial_capacity = 1u << 16;
  big.gc_threshold = 1u << 20;

  Manager::Options tiny;
  tiny.cache_bytes = 256 * 16;  // heavy cache eviction
  tiny.initial_capacity = 256;  // forced pool growth
  tiny.gc_threshold = 2048;     // frequent garbage collections

  Manager::Options growing;     // default cache: starts small, grows
  growing.gc_threshold = 2048;  // GCs interleave with the resizes

  Manager::Options odd;         // grows 4096 -> 5120: a non-doubling step
  odd.cache_bytes = 5120 * 16;
  odd.gc_threshold = 2048;

  Manager::Options single;      // every key shares slot 0, at the cap
  single.cache_bytes = 16;
  single.gc_threshold = 2048;

  const std::vector<double> reference =
      run_workload(big, GetParam()).fingerprint;
  const WorkloadRun stressed = run_workload(tiny, GetParam());
  const WorkloadRun grown = run_workload(growing, GetParam());
  const WorkloadRun capped = run_workload(odd, GetParam());
  const WorkloadRun one = run_workload(single, GetParam());
  const std::pair<const WorkloadRun*, const char*> runs[] = {
      {&stressed, "tiny"}, {&grown, "growing"}, {&capped, "5120 entries"},
      {&one, "one entry"}};
  for (const auto& [run, name] : runs) {
    ASSERT_EQ(reference.size(), run->fingerprint.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_DOUBLE_EQ(reference[i], run->fingerprint[i])
          << "step " << i << " (" << name << ")";
    }
    // Without collections the geometries would not be stressed at all.
    EXPECT_GT(run->stats.gc_runs, 0u) << name;
  }
  EXPECT_GT(grown.stats.cache_resizes, 0u);
  EXPECT_EQ(capped.stats.cache_resizes, 1u) << "the one step onto the cap";
  EXPECT_GT(one.stats.cache_hits, 0u) << "no hit, so no store was refused";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddDifferentialTest,
                         ::testing::Values(3ull, 17ull, 2026ull, 0xc0ffeeull));

}  // namespace
}  // namespace lr::bdd
