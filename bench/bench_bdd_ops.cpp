// Ablation A3: throughput of the BDD engine primitives the repair
// algorithms are built from. Each iteration builds *fresh* operands in a
// fresh manager and manually times only the operation under test —
// otherwise the operation cache would turn every iteration after the first
// into a table lookup.

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "bdd/bdd.hpp"
#include "support/rng.hpp"

namespace {

using lr::bdd::Bdd;
using lr::bdd::Manager;
using lr::bdd::VarIndex;

Manager::Options small_manager() {
  Manager::Options options;
  options.cache_bytes = std::size_t{1} << 20;  // 65,536 entries
  options.initial_capacity = 1u << 14;
  return options;
}

/// Random CNF-ish function with window-local clauses (globally random
/// 3-CNF has exponential BDDs; the loosely-coupled relations the repair
/// algorithms manipulate look like this instead).
Bdd random_function(Manager& mgr, lr::support::SplitMix64& rng,
                    std::uint32_t vars, int clauses) {
  Bdd f = mgr.bdd_true();
  for (int c = 0; c < clauses; ++c) {
    const auto base =
        static_cast<VarIndex>(rng.below(vars > 8 ? vars - 8 : 1));
    Bdd clause = mgr.bdd_false();
    for (int l = 0; l < 3; ++l) {
      const auto v = static_cast<VarIndex>(base + rng.below(8));
      clause |= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f &= clause;
  }
  return f;
}

template <typename Operation>
void run_manual(benchmark::State& state, Operation&& op) {
  const auto nvars = static_cast<std::uint32_t>(state.range(0));
  lr::support::SplitMix64 rng(0x5eed ^ nvars);
  for (auto _ : state) {
    Manager mgr(small_manager());
    std::vector<VarIndex> vars;
    for (std::uint32_t i = 0; i < nvars; ++i) vars.push_back(mgr.new_var());
    const Bdd f = random_function(mgr, rng, nvars, nvars);
    const Bdd g = random_function(mgr, rng, nvars, nvars);
    std::vector<VarIndex> half;
    for (std::uint32_t i = 0; i < nvars; i += 2) half.push_back(vars[i]);
    const Bdd cube = mgr.make_cube(half);

    const auto start = std::chrono::steady_clock::now();
    op(mgr, f, g, cube);
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(stop - start).count());
  }
}

void BM_Conjunction(benchmark::State& state) {
  run_manual(state, [](Manager&, const Bdd& f, const Bdd& g, const Bdd&) {
    benchmark::DoNotOptimize(f & g);
  });
}

void BM_Ite(benchmark::State& state) {
  run_manual(state,
             [](Manager& mgr, const Bdd& f, const Bdd& g, const Bdd& cube) {
               benchmark::DoNotOptimize(mgr.apply_ite(cube, f, g));
             });
}

void BM_Exists(benchmark::State& state) {
  run_manual(state,
             [](Manager& mgr, const Bdd& f, const Bdd&, const Bdd& cube) {
               benchmark::DoNotOptimize(mgr.exists(f, cube));
             });
}

void BM_AndExists(benchmark::State& state) {
  run_manual(state,
             [](Manager& mgr, const Bdd& f, const Bdd& g, const Bdd& cube) {
               benchmark::DoNotOptimize(mgr.and_exists(f, g, cube));
             });
}

void BM_Permute(benchmark::State& state) {
  const auto nvars = static_cast<std::uint32_t>(state.range(0));
  lr::support::SplitMix64 rng(0xabc ^ nvars);
  for (auto _ : state) {
    Manager mgr(small_manager());
    for (std::uint32_t i = 0; i < nvars; ++i) (void)mgr.new_var();
    std::vector<VarIndex> perm(nvars);
    for (std::uint32_t i = 0; i + 1 < nvars; i += 2) {
      perm[i] = i + 1;
      perm[i + 1] = i;
    }
    if (nvars % 2 == 1) perm[nvars - 1] = nvars - 1;
    const lr::bdd::PermId pid = mgr.register_permutation(perm);
    const Bdd f = random_function(mgr, rng, nvars, nvars);
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(mgr.permute(f, pid));
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(stop - start).count());
  }
}

void BM_SatCount(benchmark::State& state) {
  run_manual(state,
             [](Manager& mgr, const Bdd& f, const Bdd&, const Bdd&) {
               const auto n = mgr.var_count();
               benchmark::DoNotOptimize(mgr.sat_count(f, n));
             });
}

void BM_GarbageCollection(benchmark::State& state) {
  const auto nvars = static_cast<std::uint32_t>(state.range(0));
  lr::support::SplitMix64 rng(31 ^ nvars);
  for (auto _ : state) {
    Manager mgr(small_manager());
    for (std::uint32_t i = 0; i < nvars; ++i) (void)mgr.new_var();
    const Bdd keep = random_function(mgr, rng, nvars, nvars);
    for (int i = 0; i < 20; ++i) {
      (void)random_function(mgr, rng, nvars, nvars);  // garbage
    }
    const auto start = std::chrono::steady_clock::now();
    mgr.collect_garbage();
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(keep.id());
    state.SetIterationTime(
        std::chrono::duration<double>(stop - start).count());
  }
}

BENCHMARK(BM_Conjunction)->Arg(32)->Arg(64)->Arg(128)->UseManualTime()->Iterations(200);
BENCHMARK(BM_Ite)->Arg(32)->Arg(64)->Arg(128)->UseManualTime()->Iterations(200);
BENCHMARK(BM_Exists)->Arg(32)->Arg(64)->Arg(128)->UseManualTime()->Iterations(200);
BENCHMARK(BM_AndExists)->Arg(32)->Arg(64)->Arg(128)->UseManualTime()->Iterations(200);
BENCHMARK(BM_Permute)->Arg(32)->Arg(64)->Arg(128)->UseManualTime()->Iterations(200);
BENCHMARK(BM_SatCount)->Arg(32)->Arg(64)->Arg(128)->UseManualTime()->Iterations(200);
BENCHMARK(BM_GarbageCollection)->Arg(64)->UseManualTime()->Iterations(200);

}  // namespace

BENCHMARK_MAIN();
