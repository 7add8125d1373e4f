// Table I: Byzantine agreement — cautious repair vs. lazy repair
// (Step 1 / Step 2 split), across instance sizes. Both realize groups
// with one universal quantification per process.

// `--batch-jobs=N` runs the same sweep (see table_specs.hpp) concurrently
// through the batch executor instead of google-benchmark.

#include "bench_common.hpp"
#include "casestudies/byzantine.hpp"
#include "repair/cautious.hpp"
#include "repair/lazy.hpp"
#include "support/stopwatch.hpp"
#include "table_specs.hpp"

namespace {

using lr::bench::record;

void BM_Lazy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto program = lr::cs::make_byzantine({.non_generals = n});
    lr::support::Stopwatch watch;
    const auto result = lr::repair::lazy_repair(*program);
    const double seconds = watch.seconds();
    benchmark::DoNotOptimize(result.success);
    if (!result.success) state.SkipWithError("repair failed");
    record("BA^" + std::to_string(n), "lazy", result, seconds);
    state.counters["step1_s"] = result.stats.step1_seconds;
    state.counters["step2_s"] = result.stats.step2_seconds;
    state.counters["reach"] = result.stats.reachable_states;
  }
}

void BM_Cautious(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto program = lr::cs::make_byzantine({.non_generals = n});
    lr::support::Stopwatch watch;
    const auto result = lr::repair::cautious_repair(*program);
    const double seconds = watch.seconds();
    benchmark::DoNotOptimize(result.success);
    if (!result.success) state.SkipWithError("repair failed");
    record("BA^" + std::to_string(n), "cautious", result, seconds);
    state.counters["total_s"] = seconds;
  }
}

// 12^15 ≈ 1.5e16 states ≈ the paper's biggest BA row.
BENCHMARK(BM_Lazy)
    ->DenseRange(3, 7)->Arg(9)->Arg(12)->Arg(15)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Cautious)
    ->DenseRange(3, 6)->Arg(9)->Arg(12)->Arg(15)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

LR_BENCH_MAIN_WITH_BATCH(
    "Table I — Byzantine agreement: cautious vs. lazy repair",
    ::lr::bench::table1_tasks)
