// Ablation A1: the Step-1 heuristic ("restrict the search to the states the
// fault-intolerant program reaches in the presence of faults"). The paper's
// claim: *pure* lazy repair (no heuristic) does not improve on cautious
// repair; the heuristic is what makes it fast. BAFS makes the contrast
// visible because its full state space (24^n states) dwarfs its reachable
// set.

#include "bench_common.hpp"
#include "casestudies/byzantine.hpp"
#include "repair/lazy.hpp"
#include "support/stopwatch.hpp"

namespace {

using lr::bench::record;

void run(benchmark::State& state, bool heuristic) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto program =
        lr::cs::make_byzantine({.non_generals = n, .fail_stop = true});
    lr::repair::Options options;
    options.restrict_to_reachable = heuristic;
    lr::support::Stopwatch watch;
    const auto result = lr::repair::lazy_repair(*program, options);
    if (!result.success) state.SkipWithError("repair failed");
    record("BAFS^" + std::to_string(n),
           heuristic ? "lazy + reachability heuristic"
                     : "pure lazy (full state space)",
           result, watch.seconds());
    state.counters["search_space"] = result.stats.reachable_states;
  }
}

void BM_WithHeuristic(benchmark::State& state) { run(state, true); }
void BM_WithoutHeuristic(benchmark::State& state) { run(state, false); }

BENCHMARK(BM_WithHeuristic)
    ->Arg(4)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_WithoutHeuristic)
    ->Arg(4)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

LR_BENCH_MAIN("Ablation A1 — Step-1 reachability heuristic (Section V-A)")
