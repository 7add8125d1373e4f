#pragma once

// The benchmark's workloads and the round that runs one of them. A round
// takes every instance of a workload through the calls repair_cli makes,
// each through its public function and timed from outside:
//
//   setup   lang::parse_program / a casestudies::make_* factory / the
//           seeded random-program generator
//   repair  repair::lazy_repair or repair::cautious_repair
//   verify  repair::verify_masking
//   export  repair::export_model
//
// All in the calling thread, one instance at a time.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/profile.hpp"
#include "ledger.hpp"
#include "repair/batch.hpp"

namespace lr::bench {

struct Instance {
  /// Name, algorithm, options and program factory. Paper-table rows come
  /// from bench/table_specs.hpp, their names extended with the algorithm
  /// and group method.
  repair::BatchTask task;
  /// Paper-table rows and the shipped models are solved, so an unsolved
  /// one counts as failed; a random model may honestly have no repair.
  bool must_solve = true;
  /// The factory parses `.lr` text: its setup time is lang.parse_s.
  bool parsed = false;
  /// Cross-check a success with the explicit-state checker, clock paused.
  bool explicit_check = false;
};

struct Workload {
  std::string name;
  std::vector<Instance> instances;
  /// Cooperative per-instance repair deadline (CancelToken::with_timeout):
  /// a regression records a failed instance instead of hanging the run.
  double deadline_s = 0.0;
  /// Traced runs use only the first traced_instances instances (0: all).
  /// Profiling engages the intra engine, whose eight worker managers make
  /// a small-models instance ~17x slower.
  std::size_t traced_instances = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a named workload from `seed`. The seed draws the random models
/// of small-models; the paper-table workloads have no random inputs and
/// ignore it. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

/// Building blocks of make_workload, for tests that run tiny lists.
[[nodiscard]] Instance table_instance(repair::BatchTask task);
[[nodiscard]] Instance model_file_instance(const std::string& path);
/// `count` seeded random programs, rotating through the generator's four
/// topologies and two fault classes.
[[nodiscard]] std::vector<Instance> random_models(std::uint64_t seed,
                                                  std::size_t count);

struct InstanceResult {
  std::string name;
  bool solved = false;
  /// Build error, exception, deadline, or an unsolved must_solve instance.
  bool failed = false;
  std::string failure;
  /// Why verify_masking or the explicit checker rejected a claimed
  /// success; empty when accepted (or not solved).
  std::string rejection;
  double invariant_states = 0.0;
  /// CPU time of each phase.
  double setup_s = 0.0;
  double repair_s = 0.0;
  double verify_s = 0.0;
  double export_s = 0.0;
  /// The instance's CPU time, program teardown included, with the clock
  /// paused as for RoundResult::total_s.
  double total_s = 0.0;
  /// BDD steps (op-cache probes, ManagerStats::cache_lookups) of the
  /// repair calls, and of setup, repair, verify and export together. The
  /// explicit checker's probes are left out. Exact in an untraced round.
  std::uint64_t repair_steps = 0;
  std::uint64_t total_steps = 0;
  repair::Stats stats;
  bdd::ManagerStats bdd;  ///< at the end of the instance
  double gc_s = 0.0;

  /// Traced rounds only: the call-path profile rolled into layers, and
  /// Profiler::totals().
  struct Profile {
    Rollup rollup;
    bdd::profile::SpanCounters totals;
  };
  std::unique_ptr<const Profile> profile;
};

struct RoundResult {
  std::vector<InstanceResult> instances;
  double setup_s = 0.0;
  double parse_s = 0.0;
  double repair_s = 0.0;
  double verify_s = 0.0;
  double export_s = 0.0;
  /// Round CPU time with the clock paused for the explicit checker and
  /// lr_bench's own bookkeeping.
  double total_s = 0.0;
  std::uint64_t repair_steps = 0;
  std::uint64_t total_steps = 0;
  std::size_t solved = 0;
  std::size_t failed = 0;

  [[nodiscard]] double solved_frac() const;
  /// Mean log2|S'| over solved instances.
  [[nodiscard]] double invariant_log2() const;
  /// The per-layer metrics read from Stats, ManagerStats, the GC log and
  /// the phase clocks, summed over instances (peaks are maxima, ratios are
  /// taken over the sums). Read them from an untraced round: profiling
  /// engages the intra engine, which changes the plan these counts see.
  [[nodiscard]] std::map<std::string, double> counter_metrics() const;
  /// The per-layer metrics of the call-path rollup, summed over instances;
  /// all zero in an untraced round.
  [[nodiscard]] std::map<std::string, double> profile_metrics() const;
  /// True when both rounds did the same deterministic work instance by
  /// instance: outcome, |S'|, created nodes, cache lookups and evictions,
  /// repair and total steps, and (traced) every profiler step count.
  /// Instances that failed in either round are skipped.
  [[nodiscard]] bool same_work(const RoundResult& other) const;
};

/// Runs every instance of `workload` once. `traced` turns on the BDD
/// call-path profiler and span collection for the round (the spans stay
/// buffered for support::trace's writers until the next traced round) and
/// rolls each instance's tree into layers; `merge_into`, when set, also
/// receives every instance's tree.
[[nodiscard]] RoundResult run_round(const Workload& workload, bool traced,
                                    bdd::profile::Profiler* merge_into = nullptr);

}  // namespace lr::bench
