// Table II-a: Byzantine agreement with fail-stop faults (BAFS^n) — lazy
// repair Step 1 / Step 2 times. As in the paper, the cautious baseline is
// only run on the smallest instances ("the time ... was considerably more
// than that of the lazy repair approach. Hence, we present the results for
// the lazy repair approach only").

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

void BM_BAFS_Lazy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto program =
        lr::cs::make_byzantine({.non_generals = n, .fail_stop = true});
    lr::support::Stopwatch watch;
    const auto result = lr::repair::lazy_repair(*program);
    if (!result.success) state.SkipWithError("repair failed");
    record("BAFS^" + std::to_string(n), "lazy", result, watch.seconds());
    state.counters["step1_s"] = result.stats.step1_seconds;
    state.counters["step2_s"] = result.stats.step2_seconds;
  }
}

void BM_BAFS_Cautious(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto program =
        lr::cs::make_byzantine({.non_generals = n, .fail_stop = true});
    lr::support::Stopwatch watch;
    const auto result = lr::repair::cautious_repair(*program);
    if (!result.success) state.SkipWithError("repair failed");
    record("BAFS^" + std::to_string(n), "cautious", result, watch.seconds());
  }
}

BENCHMARK(BM_BAFS_Lazy)
    ->DenseRange(3, 6)->Arg(8)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_BAFS_Cautious)
    ->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

LR_BENCH_MAIN_WITH_BATCH(
    "Table II-a — Byzantine agreement with fail-stop faults",
    ::lr::bench::table2_tasks)
