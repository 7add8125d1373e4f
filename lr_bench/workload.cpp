#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <utility>

#include "explicit_model/explicit_model.hpp"
#include "lang/parser.hpp"
#include "model_gen.hpp"
#include "repair/cautious.hpp"
#include "repair/export.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"
#include "support/fs.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "table_specs.hpp"

namespace lr::bench {

namespace {

using repair::BatchTask;
using repair::GroupMethod;

/// Process CPU time since construction: every phase is timed with this,
/// not the wall clock. The work runs on one thread at a time (a traced
/// round's intra engine runs it on a one-thread pool while the caller
/// waits), so its CPU time is its cost. Unlike wall time it leaves out
/// stretches in which the host runs something else on the benchmark's CPU:
/// other processes, and steal time on kernels with paravirtual steal
/// accounting.
class CpuClock {
 public:
  CpuClock() noexcept : start_(now()) {}
  [[nodiscard]] double seconds() const noexcept { return now() - start_; }

 private:
  static double now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

constexpr auto kLazy = BatchTask::Algorithm::kLazy;
constexpr auto kCautious = BatchTask::Algorithm::kCautious;
constexpr auto kLoop = GroupMethod::kPaperLoop;
constexpr auto kOneShot = GroupMethod::kOneShot;

/// Random programs per small-models round. Large enough that the solved
/// fraction and mean |S'| of one seed sit within a few percent of any
/// other seed's.
constexpr std::size_t kSmallModels = 3000;

struct Row {
  std::string_view name;
  BatchTask::Algorithm algorithm;
  GroupMethod method;
};

/// Appends the table_specs rows named by `rows`, in `rows` order.
void add_rows(Workload& workload, const std::vector<BatchTask>& tasks,
              std::initializer_list<Row> rows) {
  for (const Row& row : rows) {
    const auto it = std::find_if(
        tasks.begin(), tasks.end(), [&row](const BatchTask& task) {
          return task.name == row.name && task.algorithm == row.algorithm &&
                 task.options.group_method == row.method;
        });
    if (it == tasks.end()) {
      throw std::logic_error("no table row " + std::string(row.name));
    }
    workload.instances.push_back(table_instance(*it));
  }
}

std::string joined(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) out += (out.empty() ? "" : "; ") + part;
  return out;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

InstanceResult run_instance(const Workload& workload, const Instance& instance,
                            bool traced, bdd::profile::Profiler* merge_into,
                            double& paused) {
  namespace trace = support::trace;
  InstanceResult out;
  out.name = instance.task.name;
  const CpuClock clock;
  const double paused_before = paused;

  std::unique_ptr<prog::DistributedProgram> program;
  {
    LR_TRACE_SPAN_NAMED(span, "bench.setup");
    if (trace::enabled()) span.attr("instance", out.name);
    const CpuClock setup_clock;
    try {
      program = instance.task.make_program();
    } catch (const std::exception& error) {
      out.failed = true;
      out.failure = std::string("build error: ") + error.what();
    }
    out.setup_s = setup_clock.seconds();
  }
  if (out.failed) {
    out.total_s = clock.seconds();
    return out;
  }
  bdd::Manager& manager = program->space().manager();
  const auto steps = [&manager] { return manager.stats().cache_lookups; };
  const std::uint64_t setup_steps = steps();

  repair::Options options = instance.task.options;
  options.cancel = repair::CancelToken::with_timeout(workload.deadline_s);
  repair::RepairResult result;
  {
    LR_TRACE_SPAN_NAMED(span, "bench.repair");
    if (trace::enabled()) span.attr("instance", out.name);
    const CpuClock repair_clock;
    try {
      result = instance.task.algorithm == kCautious
                   ? repair::cautious_repair(*program, options)
                   : repair::lazy_repair(*program, options);
    } catch (const repair::Cancelled&) {
      out.failed = true;
      out.failure = "deadline of " + std::to_string(workload.deadline_s) +
                    " s exceeded";
    } catch (const std::exception& error) {
      out.failed = true;
      out.failure = std::string("repair threw: ") + error.what();
    }
    out.repair_s = repair_clock.seconds();
  }
  out.repair_steps = steps() - setup_steps;
  out.stats = result.stats;
  out.solved = !out.failed && result.success;
  if (!out.failed && !out.solved && instance.must_solve) {
    out.failed = true;
    out.failure = "repair failed: " + result.failure_reason;
  }

  std::uint64_t oracle_steps = 0;
  if (out.solved) {
    out.invariant_states = result.stats.invariant_states;
    {
      LR_TRACE_SPAN_NAMED(span, "bench.verify");
      if (trace::enabled()) span.attr("instance", out.name);
      const CpuClock verify_clock;
      const repair::VerifyReport report =
          repair::verify_masking(*program, result, options.level);
      out.verify_s = verify_clock.seconds();
      if (!report.ok) {
        out.rejection = "verify_masking: " + joined(report.failures);
      }
    }
    {
      LR_TRACE_SPAN_NAMED(span, "bench.export");
      if (trace::enabled()) span.attr("instance", out.name);
      const CpuClock export_clock;
      const std::string text = repair::export_model(*program, result);
      out.export_s = export_clock.seconds();
      if (text.empty()) out.rejection = "export_model returned no text";
    }
    if (instance.explicit_check && out.rejection.empty()) {
      const CpuClock oracle;
      const std::uint64_t before_oracle = steps();
      try {
        xmodel::ExplicitModel model(*program);
        const xmodel::ExplicitModel::Report report = model.verify(result);
        if (!report.ok) {
          out.rejection = "explicit checker: " + joined(report.failures);
        }
      } catch (const std::exception& error) {
        out.rejection = std::string("explicit checker threw: ") + error.what();
      }
      oracle_steps = steps() - before_oracle;
      paused += oracle.seconds();
    }
  }

  const CpuClock bookkeeping;
  out.bdd = manager.stats();
  out.total_steps = out.bdd.cache_lookups - oracle_steps;
  for (const bdd::GcRecord& gc : manager.gc_log()) out.gc_s += gc.seconds;
  if (traced) {
    const bdd::profile::Profiler& profiler = manager.profiler();
    out.profile = std::make_unique<const InstanceResult::Profile>(
        InstanceResult::Profile{rollup(profiler), profiler.totals()});
    if (merge_into != nullptr) merge_into->merge(profiler);
  }
  paused += bookkeeping.seconds();

  // The result's BDD handles must die before the program's manager.
  result = {};
  program.reset();
  out.total_s = clock.seconds() - (paused - paused_before);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"chain-tail", "chain-mid",
                                              "byzantine", "small-models"};
  return names;
}

Instance table_instance(BatchTask task) {
  Instance instance;
  instance.task = std::move(task);
  // Table rows share names across algorithms and group methods.
  instance.task.name +=
      std::string(instance.task.algorithm == kCautious ? " cautious" : " lazy") +
      (instance.task.options.group_method == kOneShot ? " one-shot" : " loop");
  return instance;
}

Instance model_file_instance(const std::string& path) {
  const std::optional<std::string> text = support::read_file(path);
  if (!text) throw std::runtime_error("cannot read " + path);
  Instance instance;
  instance.task.name = path.substr(path.find_last_of('/') + 1);
  instance.task.make_program = [source = *text] {
    return lang::parse_program(source);
  };
  instance.parsed = true;
  instance.explicit_check = true;
  return instance;
}

std::vector<Instance> random_models(std::uint64_t seed, std::size_t count) {
  static constexpr const char* kTopologies[] = {"random", "ring", "tree",
                                                "star"};
  static constexpr const char* kFaults[] = {"havoc", "corrupt"};
  // model_seed() adds the index to the base, so the base is drawn from the
  // seed: neighbouring seeds must not share shifted model lists.
  support::SplitMix64 base_rng(seed);
  const std::uint64_t base = base_rng.next();
  std::vector<Instance> models;
  models.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Instance instance;
    instance.task.name = "random#" + std::to_string(i);
    instance.task.make_program = [model_seed = testgen::model_seed(base, i),
                                  topology = kTopologies[i % 4],
                                  faults = kFaults[(i / 4) % 2]] {
      // The generator reads its selectors from the environment.
      setenv("LR_FUZZ_TOPOLOGY", topology, 1);
      setenv("LR_FUZZ_FAULTS", faults, 1);
      support::SplitMix64 rng(model_seed);
      return testgen::random_program(rng);
    };
    instance.must_solve = false;
    instance.explicit_check = true;
    models.push_back(std::move(instance));
  }
  return models;
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  // Sizes keep one round of each workload near or under 10 s on a 2 GHz
  // core, so a run of a few rounds ends well inside a 180 s limit; the
  // README's "Workloads" section says what each list stands for.
  Workload workload;
  workload.name = std::string(name);
  if (name == "chain-tail") {
    // Past the knee: the livelock νZ grows from 38% of Sc^30's repair
    // steps to 51% of Sc^31's (93% at Sc^35, which takes ~110 s with
    // verification and does not fit a run).
    workload.instances = {table_instance(chain_task(31, kLoop))};
    workload.deadline_s = 60.0;
  } else if (name == "chain-mid") {
    add_rows(workload, table3_tasks(),
             {{"Sc^20", kLazy, kLoop},
              {"Sc^25", kLazy, kLoop},
              {"Sc^10", kLazy, kOneShot},
              {"Sc^30", kLazy, kOneShot}});
    workload.deadline_s = 20.0;
  } else if (name == "byzantine") {
    add_rows(workload, table1_tasks(),
             {{"BA^3", kLazy, kLoop},
              {"BA^4", kLazy, kLoop},
              {"BA^5", kLazy, kLoop},
              {"BA^6", kLazy, kLoop},
              {"BA^3", kCautious, kLoop},
              {"BA^4", kCautious, kLoop},
              {"BA^6", kCautious, kOneShot},
              {"BA^12", kLazy, kOneShot}});
    add_rows(workload, table2_tasks(),
             {{"BAFS^3", kLazy, kLoop},
              {"BAFS^4", kLazy, kLoop},
              {"BAFS^8", kLazy, kOneShot}});
    workload.deadline_s = 20.0;
  } else if (name == "small-models") {
    // The model files come first, so traced runs keep them.
    for (const char* file : {"tmr.lr", "quickstart.lr", "mutex_ring.lr"}) {
      workload.instances.push_back(model_file_instance(
          std::string(LR_BENCH_REPO_DIR) + "/models/" + file));
    }
    for (Instance& model : random_models(seed, kSmallModels)) {
      workload.instances.push_back(std::move(model));
    }
    workload.deadline_s = 5.0;
    workload.traced_instances = 3 + kSmallModels / 8;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  return workload;
}

RoundResult run_round(const Workload& workload, bool traced,
                      bdd::profile::Profiler* merge_into) {
  bdd::profile::set_enabled(traced);
  // Span collection computes span attributes such as state counts, which
  // is BDD work of its own: a traced round always collects, so traced
  // rounds repeat exactly.
  if (traced) support::trace::start();
  RoundResult round;
  round.instances.reserve(workload.instances.size());
  const CpuClock clock;
  double paused = 0.0;
  for (const Instance& instance : workload.instances) {
    round.instances.push_back(
        run_instance(workload, instance, traced, merge_into, paused));
    const InstanceResult& result = round.instances.back();
    round.setup_s += result.setup_s;
    if (instance.parsed) round.parse_s += result.setup_s;
    round.repair_s += result.repair_s;
    round.verify_s += result.verify_s;
    round.export_s += result.export_s;
    round.repair_steps += result.repair_steps;
    round.total_steps += result.total_steps;
    round.solved += result.solved ? 1 : 0;
    round.failed += result.failed ? 1 : 0;
  }
  round.total_s = clock.seconds() - paused;
  if (traced) support::trace::stop();
  bdd::profile::set_enabled(false);
  return round;
}

double RoundResult::solved_frac() const {
  return instances.empty() ? 0.0
                           : static_cast<double>(solved) /
                                 static_cast<double>(instances.size());
}

double RoundResult::invariant_log2() const {
  double sum = 0.0;
  for (const InstanceResult& result : instances) {
    if (result.solved) sum += std::log2(result.invariant_states);
  }
  return solved == 0 ? 0.0 : sum / static_cast<double>(solved);
}

std::map<std::string, double> RoundResult::counter_metrics() const {
  double gc_s = 0.0;
  double peak_mb = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t created = 0;
  std::uint64_t gc_runs = 0;
  std::size_t peak_nodes = 0;
  std::size_t group_iterations = 0;
  std::size_t expand_accepts = 0;
  std::size_t expand_tries = 0;
  std::size_t outer_iterations = 0;
  std::size_t deadlock_rounds = 0;
  for (const InstanceResult& result : instances) {
    gc_s += result.gc_s;
    peak_mb = std::max(peak_mb, static_cast<double>(result.bdd.peak_bytes) /
                                    (1024.0 * 1024.0));
    lookups += result.bdd.cache_lookups;
    hits += result.bdd.cache_hits;
    evictions += result.bdd.cache_evictions;
    created += result.bdd.created_nodes;
    gc_runs += result.bdd.gc_runs;
    peak_nodes = std::max(peak_nodes, result.bdd.peak_nodes);
    group_iterations += result.stats.group_iterations;
    expand_accepts += result.stats.expand_successes;
    expand_tries +=
        result.stats.expand_successes + result.stats.expand_failures;
    outer_iterations += result.stats.outer_iterations;
    deadlock_rounds += result.stats.deadlock_rounds;
  }
  return {
      {"repair.lazy.outer_iterations", static_cast<double>(outer_iterations)},
      {"repair.lazy.deadlock_rounds", static_cast<double>(deadlock_rounds)},
      {"bdd.cache_lookups", static_cast<double>(lookups)},
      {"bdd.cache_hit_rate",
       ratio(static_cast<double>(hits), static_cast<double>(lookups))},
      {"bdd.cache_evictions", static_cast<double>(evictions)},
      {"bdd.created_nodes", static_cast<double>(created)},
      {"bdd.peak_nodes", static_cast<double>(peak_nodes)},
      {"bdd.peak_mb", peak_mb},
      {"bdd.gc_runs", static_cast<double>(gc_runs)},
      {"bdd.gc_s", gc_s},
      {"repair.realize.group_iterations",
       static_cast<double>(group_iterations)},
      {"repair.realize.expand_accept_ratio",
       ratio(static_cast<double>(expand_accepts),
             static_cast<double>(expand_tries))},
      {"repair.s", repair_s},
      {"repair.verify.s", verify_s},
      {"repair.export.s", export_s},
      {"lang.parse_s", parse_s},
      {"bench.total_s", total_s},
  };
}

std::map<std::string, double> RoundResult::profile_metrics() const {
  Rollup sum;
  std::uint64_t work = 0;
  for (const InstanceResult& result : instances) {
    if (result.profile != nullptr) {
      sum.accumulate(result.profile->rollup);
      work += result.profile->totals.work_steps();
    }
  }
  const auto steps = [&sum](Layer layer) {
    return static_cast<double>(sum[layer].work_steps());
  };
  const auto view_steps = [&sum](View view) {
    return static_cast<double>(sum[view].work_steps());
  };
  const double livelock_iterations =
      static_cast<double>(sum.livelock_iterations);
  return {
      {"repair.lazy.livelock_steps", steps(Layer::kLivelock)},
      {"repair.lazy.livelock_s", sum[Layer::kLivelock].total_seconds()},
      {"repair.lazy.livelock_iterations", livelock_iterations},
      {"repair.lazy.livelock_steps_per_iter",
       ratio(steps(Layer::kLivelock), livelock_iterations)},
      {"repair.lazy.livelock_hit_rate",
       sum[Layer::kLivelock].cache_hit_rate()},
      {"repair.lazy.deadlock_steps", steps(Layer::kDeadlock)},
      {"bdd.work_steps", static_cast<double>(work)},
      {"repair.realize.steps", steps(Layer::kRealize)},
      {"repair.realize.s", sum[Layer::kRealize].total_seconds()},
      {"repair.realize.hit_rate", sum[Layer::kRealize].cache_hit_rate()},
      {"program.group_steps", view_steps(View::kGroup)},
      {"repair.add_masking.steps", steps(Layer::kAddMasking)},
      {"repair.add_masking.s", sum[Layer::kAddMasking].total_seconds()},
      {"repair.add_masking.shrink_steps", view_steps(View::kAddMaskingShrink)},
      {"repair.add_masking.recovery_steps",
       view_steps(View::kAddMaskingLayers)},
      {"symbolic.reach_steps", view_steps(View::kReach)},
      {"repair.cautious.steps", steps(Layer::kCautious)},
      {"repair.cautious.s", sum[Layer::kCautious].total_seconds()},
      {"repair.cautious.shrink_steps", view_steps(View::kCautiousShrink)},
      {"repair.cautious.groups_steps", view_steps(View::kCautiousGroups)},
      {"repair.cautious.layers_steps", view_steps(View::kCautiousLayers)},
      {"repair.verify.steps", steps(Layer::kVerify)},
      {"repair.export.steps", steps(Layer::kExport)},
      {"repair.unattributed_steps", steps(Layer::kUnattributed)},
  };
}

bool RoundResult::same_work(const RoundResult& other) const {
  if (instances.size() != other.instances.size()) return false;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const InstanceResult& a = instances[i];
    const InstanceResult& b = other.instances[i];
    if (a.name != b.name) return false;
    // A deadline depends on the clock; a failed instance counts in
    // `failed` instead.
    if (a.failed || b.failed) continue;
    if (a.solved != b.solved || a.invariant_states != b.invariant_states ||
        a.bdd.created_nodes != b.bdd.created_nodes ||
        a.bdd.cache_lookups != b.bdd.cache_lookups ||
        a.repair_steps != b.repair_steps || a.total_steps != b.total_steps ||
        a.bdd.cache_evictions != b.bdd.cache_evictions ||
        (a.profile == nullptr) != (b.profile == nullptr)) {
      return false;
    }
    if (a.profile == nullptr) continue;
    const Rollup& ra = a.profile->rollup;
    const Rollup& rb = b.profile->rollup;
    if (ra.livelock_iterations != rb.livelock_iterations) return false;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      if (ra.layers[l].work_steps() != rb.layers[l].work_steps()) return false;
    }
  }
  return true;
}

}  // namespace lr::bench
