// lr_bench: runs one workload of the repair-pipeline benchmark in this
// process, on one thread, and prints one JSON result line.
//
// Usage:
//   lr_bench --workload=NAME [--seed=N] [--seconds=S] [--trace-out=FILE]
//
// Rounds of the whole workload repeat while the next one still fits in
// --seconds. Without --trace-out the result carries the end-to-end
// metrics: setup CPU time, summed over instances from the instance's
// fastest round; the BDD steps of the repair calls and of the whole
// pipeline; the process's peak RSS; and the solution quality of the
// seeded inputs. With --trace-out, untraced and traced rounds alternate
// (over Workload::traced_instances). The result carries the per-layer
// ledger, whose Stats and ManagerStats counts and phase times come from
// the untraced rounds and whose call-path rollup comes from the traced
// rounds, plus trace.overhead. FILE receives the last traced round's
// Chrome trace, with the collapsed call-path flamegraph (steps) of the
// traced rounds next to it as *.collapsed.
//
// Exit status: 0 when every claimed success passed verify_masking (and,
// on small-models, the explicit-state checker) and the rounds did
// identical deterministic work; 1 otherwise, after a one-line repro on
// stderr per rejected instance; 2 on a usage error.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/profile.hpp"
#include "ledger.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"
#include "workload.hpp"

namespace {

using lr::bench::InstanceResult;
using lr::bench::RoundResult;

/// Untraced rounds per run even when one round outlasts --seconds. A
/// traced run needs one untraced and one traced round.
constexpr std::size_t kMinRounds = 2;
/// No new round starts after this long, so a slowed-down workload still
/// ends well inside a harness's time limit.
constexpr double kMaxSeconds = 100.0;

/// What a run keeps of its rounds of one kind, untraced or traced: the
/// first round in full, which every later round must repeat exactly, and
/// each instance's fastest setup and total time. On a shared host, noise
/// only ever adds time, so an instance's fastest round is the steadiest
/// estimate of its cost. Keeping one round rather than all also keeps
/// lr_bench's own memory out of peak_rss_mb.
struct Tally {
  std::optional<RoundResult> first;
  std::vector<double> setup;
  std::vector<double> total;
  /// Each per-layer metric's minimum over rounds: the counter metrics of
  /// untraced rounds, the profile metrics of traced ones. Counts repeat
  /// exactly, so only the times differ between rounds.
  std::map<std::string, double> layers;
  std::size_t rounds = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool same_work = true;

  void add(RoundResult round, bool traced) {
    ++rounds;
    attempted += round.instances.size();
    failed += round.failed;
    for (const auto& [key, value] :
         traced ? round.profile_metrics() : round.counter_metrics()) {
      const auto it = layers.find(key);
      layers[key] = it == layers.end() ? value : std::min(it->second, value);
    }
    if (!first) {
      for (const InstanceResult& result : round.instances) {
        setup.push_back(result.setup_s);
        total.push_back(result.total_s);
      }
      first = std::move(round);
      return;
    }
    same_work = same_work && round.same_work(*first);
    for (std::size_t i = 0; i < round.instances.size(); ++i) {
      const InstanceResult& result = round.instances[i];
      setup[i] = std::min(setup[i], result.setup_s);
      total[i] = std::min(total[i], result.total_s);
    }
  }
};

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<lr::bench::MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) line += ", ";
    line += lr::support::json_quote(specs[i].name) + ": {\"value\": " +
            lr::support::json_number(values.at(specs[i].name)) +
            ", \"unit\": " + lr::support::json_quote(specs[i].unit) + "}";
  }
  return line + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap instead of handing it back to the
  // kernel, so every round after the first reuses pages rather than
  // faulting in fresh zeroed ones. The fastest round then measures the
  // same warm cost whether a run has two rounds or ten: without this,
  // chain-tail's setup_s read 7-10 ms after two rounds and 2.3 ms after
  // three, because the second round still grew the heap.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  const lr::support::CommandLine cli(argc, argv);
  const std::set<std::string> known{"workload", "seed", "seconds",
                                    "trace-out"};
  for (const std::string& name : cli.option_names()) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "lr_bench: unknown option --%s\n", name.c_str());
      return 2;
    }
  }
  const std::string name = cli.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = std::atof(cli.get("seconds", "10").c_str());
  const std::string trace_path = cli.get("trace-out", "");
  const bool traced = !trace_path.empty();

  lr::bench::Workload workload;
  try {
    workload = lr::bench::make_workload(name, seed);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lr_bench: %s (workloads:", error.what());
    for (const std::string& known_name : lr::bench::workload_names()) {
      std::fprintf(stderr, " %s", known_name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  if (traced && workload.traced_instances != 0 &&
      workload.traced_instances < workload.instances.size()) {
    workload.instances.resize(workload.traced_instances);
  }

  // Correctness gate: each rejected or failed instance is reported once,
  // as a one-line repro.
  bool correct = true;
  std::set<std::size_t> reported;
  const auto check = [&](const RoundResult& round) {
    for (std::size_t i = 0; i < round.instances.size(); ++i) {
      const InstanceResult& result = round.instances[i];
      const std::string& problem =
          result.rejection.empty() ? result.failure : result.rejection;
      if (problem.empty() || !reported.insert(i).second) continue;
      if (!result.rejection.empty()) correct = false;
      std::fprintf(stderr,
                   "lr_bench: %s: workload=%s seed=%llu instance=%zu (%s): "
                   "%s\n",
                   result.rejection.empty() ? "failed" : "REJECTED",
                   workload.name.c_str(),
                   static_cast<unsigned long long>(seed), i,
                   result.name.c_str(), problem.c_str());
    }
  };

  // With --trace-out a traced round follows each untraced one, so
  // trace.overhead compares rounds run under the same conditions. A new
  // round starts only when one as long as the last still ends within
  // --seconds, so a run takes --seconds or less.
  Tally plain;
  Tally profiled;
  lr::bdd::profile::Profiler flame;
  const lr::support::Stopwatch run;
  double last_round_s = 0.0;
  do {
    const lr::support::Stopwatch round_clock;
    RoundResult round = lr::bench::run_round(workload, false);
    check(round);
    plain.add(std::move(round), false);
    if (traced) {
      round = lr::bench::run_round(workload, true,
                                   profiled.first ? nullptr : &flame);
      check(round);
      profiled.add(std::move(round), true);
    }
    last_round_s = round_clock.seconds();
  } while ((plain.rounds < (traced ? 1 : kMinRounds) ||
            run.seconds() + last_round_s <= seconds) &&
           run.seconds() < kMaxSeconds);
  if (!plain.same_work || !profiled.same_work) {
    correct = false;
    std::fprintf(stderr,
                 "lr_bench: workload=%s seed=%llu: rounds did different "
                 "deterministic work\n",
                 workload.name.c_str(), static_cast<unsigned long long>(seed));
  }

  std::map<std::string, double> values;
  if (!traced) {
    // Step counts repeat exactly between rounds (same_work checks them).
    values = {
        {"setup_s", sum(plain.setup)},
        {"repair_steps", static_cast<double>(plain.first->repair_steps)},
        {"total_steps", static_cast<double>(plain.first->total_steps)},
        {"peak_rss_mb", peak_rss_mb()},
        {"solved_frac", plain.first->solved_frac()},
        {"invariant_log2", plain.first->invariant_log2()},
    };
  } else {
    values = plain.layers;
    values.insert(profiled.layers.begin(), profiled.layers.end());
    values["trace.overhead"] = sum(profiled.total) / sum(plain.total);
    const std::string flame_path =
        std::filesystem::path(trace_path).replace_extension(".collapsed");
    if (!lr::support::trace::write_chrome_json_file(trace_path) ||
        !lr::bdd::profile::write_collapsed_file(flame, flame_path)) {
      std::fprintf(stderr, "lr_bench: cannot write %s or %s\n",
                   trace_path.c_str(), flame_path.c_str());
      correct = false;
    }
  }

  std::printf("%s\n",
              result_line(correct, plain.attempted + profiled.attempted,
                          plain.failed + profiled.failed,
                          traced ? lr::bench::per_layer_metrics()
                                 : lr::bench::end_to_end_metrics(),
                          values)
                  .c_str());
  return correct ? 0 : 1;
}
