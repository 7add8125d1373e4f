#pragma once

// Rolls one instance's BDD call-path profile up into the pipeline layers
// the benchmark reports, and names the metrics lr_bench prints.
//
// Every path node of the profiler's tree lands in exactly one layer (the
// partition), so the layers sum to Profiler::totals() on every counter.
// A few cross-cutting views (all group closures, all reachability, the
// sub-fixpoints of Step 1 and of cautious repair) are reported next to
// the partition; they overlap it and are not part of the sum.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "bdd/profile.hpp"

namespace lr::bench {

/// The partition. The bench.* phase spans decide setup/verify/export; work
/// under bench.repair (or under no span at all) goes to the innermost
/// algorithm layer it ran in.
enum class Layer : std::size_t {
  kSetup,         ///< bench.setup: program construction
  kLivelock,      ///< lazy_repair.eliminate_livelocks (the νZ)
  kDeadlock,      ///< lazy_repair.deadlock_check
  kRealize,       ///< realize (Algorithm 2)
  kAddMasking,    ///< add_masking (Step 1)
  kCautious,      ///< cautious_repair
  kUnattributed,  ///< repair work with no layer span: compile, glue, reach
  kVerify,        ///< bench.verify: verify_masking
  kExport,        ///< bench.export: export_model
};
inline constexpr std::size_t kLayerCount = 9;

/// Overlapping views of the same tree.
enum class View : std::size_t {
  kGroup,             ///< program.group anywhere
  kReach,             ///< space.forward_reachable* / backward_reachable
  kAddMaskingShrink,  ///< add_masking.shrink_fixpoint
  kAddMaskingLayers,  ///< add_masking.recovery_layers
  kCautiousShrink,    ///< cautious_repair.shrink
  kCautiousGroups,    ///< cautious_repair.groups
  kCautiousLayers,    ///< cautious_repair.layers
};
inline constexpr std::size_t kViewCount = 7;

struct Rollup {
  std::array<bdd::profile::SpanCounters, kLayerCount> layers{};
  std::array<bdd::profile::SpanCounters, kViewCount> views{};
  /// Quantify calls charged directly to the νZ frame (not to the group
  /// closures under it): one and_exists per νZ step.
  std::uint64_t livelock_iterations = 0;

  [[nodiscard]] const bdd::profile::SpanCounters& operator[](
      Layer layer) const noexcept {
    return layers[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const bdd::profile::SpanCounters& operator[](
      View view) const noexcept {
    return views[static_cast<std::size_t>(view)];
  }
  void accumulate(const Rollup& other);
};

[[nodiscard]] Rollup rollup(const bdd::profile::Profiler& profiler);

/// Name and unit of one printed metric.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics (untraced runs) and the per-layer metrics
/// (traced runs), in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace lr::bench
