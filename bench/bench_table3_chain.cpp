// Table II-b: stabilizing chain Sc^n — lazy repair times across chain
// lengths. Domain 8 per variable matches the paper's state-space range
// (Sc^20 ≈ 10^19 ... Sc^30 ≈ 10^28).

// `--batch-jobs=N` runs the same sweep (see table_specs.hpp) concurrently
// through the batch executor instead of google-benchmark.

#include "bench_common.hpp"
#include "casestudies/chain.hpp"
#include "repair/lazy.hpp"
#include "support/stopwatch.hpp"
#include "table_specs.hpp"

namespace {

using lr::bench::record;

void BM_Chain_Lazy(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto program = lr::cs::make_chain({.length = length, .domain = 8});
    lr::support::Stopwatch watch;
    const auto result = lr::repair::lazy_repair(*program);
    if (!result.success) state.SkipWithError("repair failed");
    record("Sc^" + std::to_string(length), "lazy", result, watch.seconds());
    state.counters["step1_s"] = result.stats.step1_seconds;
    state.counters["step2_s"] = result.stats.step2_seconds;
    state.counters["reach"] = result.stats.reachable_states;
  }
}

BENCHMARK(BM_Chain_Lazy)
    ->Arg(10)->Arg(15)->Arg(20)->Arg(25)->Arg(30)->Arg(35)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

LR_BENCH_MAIN_WITH_BATCH("Table II-b — Stabilizing chain",
                         ::lr::bench::table3_tasks)
