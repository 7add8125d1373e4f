#include "ledger.hpp"

#include <cstdint>
#include <string_view>

namespace lr::bench {

namespace {

using bdd::profile::OpClass;
using bdd::profile::Profiler;

enum Flag : std::uint32_t {
  kSetupFrame = 1u << 0,
  kVerifyFrame = 1u << 1,
  kExportFrame = 1u << 2,
  kLivelockFrame = 1u << 3,
  kDeadlockFrame = 1u << 4,
  kRealizeFrame = 1u << 5,
  kAddMaskingFrame = 1u << 6,
  kCautiousFrame = 1u << 7,
  kGroupFrame = 1u << 8,
  kReachFrame = 1u << 9,
  kAmShrinkFrame = 1u << 10,
  kAmLayersFrame = 1u << 11,
  kCautiousShrinkFrame = 1u << 12,
  kCautiousGroupsFrame = 1u << 13,
  kCautiousLayersFrame = 1u << 14,
};

/// Span names come from src/ (LR_TRACE_SPAN sites) and from lr_bench's
/// own bench.* phase spans.
std::uint32_t frame_flags(std::string_view name) {
  if (name == "bench.setup") return kSetupFrame;
  if (name == "bench.verify") return kVerifyFrame;
  if (name == "bench.export") return kExportFrame;
  if (name == "lazy_repair.eliminate_livelocks") return kLivelockFrame;
  if (name == "lazy_repair.deadlock_check") return kDeadlockFrame;
  if (name == "realize" || name == "realize.process") return kRealizeFrame;
  if (name == "program.group") return kGroupFrame;
  if (name.starts_with("space.forward_reachable") ||
      name == "space.backward_reachable") {
    return kReachFrame;
  }
  if (name == "add_masking.shrink_fixpoint") {
    return kAddMaskingFrame | kAmShrinkFrame;
  }
  if (name == "add_masking.recovery_layers") {
    return kAddMaskingFrame | kAmLayersFrame;
  }
  if (name.starts_with("add_masking")) return kAddMaskingFrame;
  if (name == "cautious_repair.shrink") {
    return kCautiousFrame | kCautiousShrinkFrame;
  }
  if (name == "cautious_repair.groups") {
    return kCautiousFrame | kCautiousGroupsFrame;
  }
  if (name == "cautious_repair.layers") {
    return kCautiousFrame | kCautiousLayersFrame;
  }
  if (name.starts_with("cautious_repair")) return kCautiousFrame;
  return 0;
}

Layer layer_of(std::uint32_t path) {
  if ((path & kSetupFrame) != 0) return Layer::kSetup;
  if ((path & kVerifyFrame) != 0) return Layer::kVerify;
  if ((path & kExportFrame) != 0) return Layer::kExport;
  if ((path & kLivelockFrame) != 0) return Layer::kLivelock;
  if ((path & kDeadlockFrame) != 0) return Layer::kDeadlock;
  if ((path & kRealizeFrame) != 0) return Layer::kRealize;
  if ((path & kCautiousFrame) != 0) return Layer::kCautious;
  if ((path & kAddMaskingFrame) != 0) return Layer::kAddMasking;
  return Layer::kUnattributed;
}

constexpr std::array<std::pair<View, std::uint32_t>, kViewCount> kViewFrames{{
    {View::kGroup, kGroupFrame},
    {View::kReach, kReachFrame},
    {View::kAddMaskingShrink, kAmShrinkFrame},
    {View::kAddMaskingLayers, kAmLayersFrame},
    {View::kCautiousShrink, kCautiousShrinkFrame},
    {View::kCautiousGroups, kCautiousGroupsFrame},
    {View::kCautiousLayers, kCautiousLayersFrame},
}};

}  // namespace

void Rollup::accumulate(const Rollup& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers[i].accumulate(other.layers[i]);
  }
  for (std::size_t i = 0; i < kViewCount; ++i) {
    views[i].accumulate(other.views[i]);
  }
  livelock_iterations += other.livelock_iterations;
}

Rollup rollup(const Profiler& profiler) {
  Rollup out;
  const std::vector<Profiler::PathNode>& nodes = profiler.path_nodes();
  // A parent's id is always smaller than its children's, so one forward
  // pass sees every parent's path flags before its children.
  std::vector<std::uint32_t> path(nodes.size(), 0);
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const Profiler::PathNode& node = nodes[id];
    if (id != bdd::profile::kRootPath) {
      path[id] = path[node.parent] | frame_flags(node.name);
    }
    out.layers[static_cast<std::size_t>(layer_of(path[id]))].accumulate(
        node.counters);
    for (const auto& [view, flag] : kViewFrames) {
      if ((path[id] & flag) != 0) {
        out.views[static_cast<std::size_t>(view)].accumulate(node.counters);
      }
    }
    if (node.name == "lazy_repair.eliminate_livelocks") {
      out.livelock_iterations += node.counters.op(OpClass::kQuantify).calls;
    }
  }
  return out;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs{
      {"setup_s", "s"},         {"repair_steps", "count"},
      {"total_steps", "count"}, {"peak_rss_mb", "MB"},
      {"solved_frac", "ratio"}, {"invariant_log2", "bits"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs{
      {"repair.lazy.livelock_steps", "count"},
      {"repair.lazy.livelock_s", "s"},
      {"repair.lazy.livelock_iterations", "count"},
      {"repair.lazy.livelock_steps_per_iter", "steps/iter"},
      {"repair.lazy.livelock_hit_rate", "ratio"},
      {"repair.lazy.deadlock_steps", "count"},
      {"repair.lazy.outer_iterations", "count"},
      {"repair.lazy.deadlock_rounds", "count"},
      {"bdd.cache_lookups", "count"},
      {"bdd.cache_hit_rate", "ratio"},
      {"bdd.cache_evictions", "count"},
      {"bdd.created_nodes", "count"},
      {"bdd.peak_nodes", "count"},
      {"bdd.peak_mb", "MB"},
      {"bdd.gc_runs", "count"},
      {"bdd.gc_s", "s"},
      {"bdd.work_steps", "count"},
      {"repair.realize.steps", "count"},
      {"repair.realize.s", "s"},
      {"repair.realize.hit_rate", "ratio"},
      {"repair.realize.group_iterations", "count"},
      {"repair.realize.expand_accept_ratio", "ratio"},
      {"program.group_steps", "count"},
      {"repair.add_masking.steps", "count"},
      {"repair.add_masking.s", "s"},
      {"repair.add_masking.shrink_steps", "count"},
      {"repair.add_masking.recovery_steps", "count"},
      {"symbolic.reach_steps", "count"},
      {"repair.cautious.steps", "count"},
      {"repair.cautious.s", "s"},
      {"repair.cautious.shrink_steps", "count"},
      {"repair.cautious.groups_steps", "count"},
      {"repair.cautious.layers_steps", "count"},
      {"repair.s", "s"},
      {"repair.verify.s", "s"},
      {"repair.verify.steps", "count"},
      {"repair.export.s", "s"},
      {"repair.export.steps", "count"},
      {"lang.parse_s", "s"},
      {"repair.unattributed_steps", "count"},
      {"bench.total_s", "s"},
      {"trace.overhead", "ratio"},
  };
  return specs;
}

}  // namespace lr::bench
