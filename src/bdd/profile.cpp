#include "bdd/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace lr::bdd::profile {

namespace {

constexpr const char* kUnattributed = "(unattributed)";

std::string percent(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", fraction * 100.0);
  return buffer;
}

}  // namespace

const char* op_class_name(OpClass op) noexcept {
  switch (op) {
    case OpClass::kApply: return "apply";
    case OpClass::kIte: return "ite";
    case OpClass::kQuantify: return "quantify";
    case OpClass::kDecide: return "decide";
    case OpClass::kPermute: return "permute";
    case OpClass::kGc: return "gc";
  }
  return "?";
}

std::uint64_t SpanCounters::work_steps() const noexcept {
  return op(OpClass::kApply).steps + op(OpClass::kIte).steps +
         op(OpClass::kQuantify).steps;
}

double SpanCounters::cache_hit_rate() const noexcept {
  return cache_lookups == 0
             ? 0.0
             : static_cast<double>(cache_hits) /
                   static_cast<double>(cache_lookups);
}

double SpanCounters::total_seconds() const noexcept {
  double total = 0.0;
  for (const PerOp& per : ops) total += per.seconds;
  return total;
}

void SpanCounters::accumulate(const SpanCounters& other) {
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    ops[i].calls += other.ops[i].calls;
    ops[i].steps += other.ops[i].steps;
    ops[i].seconds += other.ops[i].seconds;
  }
  created_nodes += other.created_nodes;
  unique_hits += other.unique_hits;
  cache_lookups += other.cache_lookups;
  cache_hits += other.cache_hits;
  gc_runs += other.gc_runs;
  gc_reclaimed += other.gc_reclaimed;
  peak_nodes = std::max(peak_nodes, other.peak_nodes);
}

void set_enabled(bool on) {
  // keep_span_stack is counted, so only flip it on actual transitions.
  if (detail::g_enabled.exchange(on, std::memory_order_relaxed) == on) return;
  support::trace::keep_span_stack(on);
}

// --- Profiler: the call-path tree --------------------------------------------

Profiler::Profiler() { nodes_.emplace_back(); }

PathId Profiler::intern_child(PathId parent, const char* name) {
  PathNode& node = nodes_[parent];
  for (const PathId child : node.children) {
    // Content compare, never pointer compare: identically-named spans from
    // different string literals (or dynamic buffers) must share a node.
    if (nodes_[child].name == name) return child;
  }
  const PathId id = static_cast<PathId>(nodes_.size());
  nodes_[parent].children.push_back(id);
  PathNode fresh;
  fresh.name = name;
  fresh.parent = parent;
  nodes_.push_back(std::move(fresh));
  return id;
}

SpanCounters& Profiler::path_counters(const char* const* frames,
                                      std::size_t depth) {
  if (depth > kMaxPathDepth) depth = kMaxPathDepth;  // truncate deep stacks
  flat_dirty_ = true;
  ++charges_;
  if (depth == last_depth_ &&
      std::equal(frames, frames + depth, last_frames_.begin())) {
    return nodes_[last_id_].counters;
  }
  PathId id = kRootPath;
  for (std::size_t i = 0; i < depth; ++i) id = intern_child(id, frames[i]);
  std::copy(frames, frames + depth, last_frames_.begin());
  last_depth_ = depth;
  last_id_ = id;
  return nodes_[id].counters;
}

std::string Profiler::path_string(PathId id) const {
  if (id == kRootPath) return kUnattributed;
  std::vector<const std::string*> names;
  for (PathId at = id; at != kRootPath; at = nodes_[at].parent) {
    names.push_back(&nodes_[at].name);
  }
  std::string out;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!out.empty()) out += ';';
    out += **it;
  }
  return out;
}

const std::map<std::string, SpanCounters>& Profiler::buckets() const {
  if (flat_dirty_) {
    flat_.clear();
    for (PathId id = 0; id < nodes_.size(); ++id) {
      const PathNode& node = nodes_[id];
      const bool charged =
          node.counters.cache_lookups != 0 || node.counters.created_nodes != 0;
      bool any_calls = charged;
      for (const SpanCounters::PerOp& per : node.counters.ops) {
        any_calls = any_calls || per.calls != 0;
      }
      if (!any_calls) continue;  // structural-only nodes stay out of the view
      const std::string& leaf = id == kRootPath ? kUnattributed : node.name;
      flat_[leaf].accumulate(node.counters);
    }
    flat_dirty_ = false;
  }
  return flat_;
}

SpanCounters Profiler::totals() const {
  SpanCounters total;
  for (const PathNode& node : nodes_) total.accumulate(node.counters);
  return total;
}

void Profiler::clear() {
  nodes_.clear();
  nodes_.emplace_back();
  charges_ = 0;
  last_depth_ = kMaxPathDepth + 1;
  last_id_ = kRootPath;
  flat_.clear();
  flat_dirty_ = true;
}

void Profiler::merge(const Profiler& other) {
  if (other.charges_ == 0 && other.nodes_.size() == 1) return;
  // Parents always precede their children (ids are creation-ordered), so a
  // single forward walk can map every foreign id onto this tree.
  std::vector<PathId> map(other.nodes_.size(), kRootPath);
  for (PathId id = 1; id < other.nodes_.size(); ++id) {
    const PathNode& node = other.nodes_[id];
    map[id] = intern_child(map[node.parent], node.name.c_str());
  }
  for (PathId id = 0; id < other.nodes_.size(); ++id) {
    nodes_[map[id]].counters.accumulate(other.nodes_[id].counters);
  }
  charges_ += other.charges_;
  // The cached fast path may point at a rehashed tree; drop it.
  last_depth_ = kMaxPathDepth + 1;
  flat_dirty_ = true;
}

void ScopedOp::charge(double seconds) {
  const ManagerStats after = mgr_->stats();
  const char* frames[kMaxPathDepth];
  const std::size_t depth =
      support::trace::current_span_path(frames, kMaxPathDepth);
  SpanCounters& bucket = prof_->path_counters(frames, depth);
  SpanCounters::PerOp& per = bucket.ops[static_cast<unsigned>(op_)];
  per.calls += 1;
  per.steps += after.cache_lookups - before_.cache_lookups;
  per.seconds += seconds;
  bucket.created_nodes += after.created_nodes - before_.created_nodes;
  bucket.unique_hits += after.unique_hits - before_.unique_hits;
  bucket.cache_lookups += after.cache_lookups - before_.cache_lookups;
  bucket.cache_hits += after.cache_hits - before_.cache_hits;
  bucket.gc_runs += after.gc_runs - before_.gc_runs;
  bucket.gc_reclaimed += after.gc_reclaimed - before_.gc_reclaimed;
  bucket.peak_nodes = std::max(bucket.peak_nodes, after.peak_nodes);
}

void write_attribution_table(const Profiler& prof, std::ostream& out) {
  const SpanCounters total = prof.totals();
  const double total_work =
      total.work_steps() == 0 ? 1.0 : static_cast<double>(total.work_steps());

  std::vector<std::pair<std::string, const SpanCounters*>> rows;
  rows.reserve(prof.buckets().size());
  for (const auto& [name, counters] : prof.buckets()) {
    rows.emplace_back(name, &counters);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second->work_steps() != b.second->work_steps()) {
      return a.second->work_steps() > b.second->work_steps();
    }
    return a.first < b.first;  // stable, deterministic tie-break
  });

  support::Table table({"span", "applies", "quantifies", "decides", "steps",
                        "work", "cache-hit", "nodes", "time"});
  const auto add = [&table](const std::string& name, const SpanCounters& c,
                            double work_fraction) {
    table.add_row(
        {name,
         std::to_string(c.op(OpClass::kApply).calls +
                        c.op(OpClass::kIte).calls),
         std::to_string(c.op(OpClass::kQuantify).calls),
         std::to_string(c.op(OpClass::kDecide).calls),
         std::to_string(c.work_steps()), percent(work_fraction),
         percent(c.cache_hit_rate()), std::to_string(c.created_nodes),
         support::format_duration(c.total_seconds())});
  };
  for (const auto& [name, counters] : rows) {
    add(name, *counters,
        static_cast<double>(counters->work_steps()) / total_work);
  }
  add("TOTAL", total,
      total.work_steps() == 0 ? 0.0
                              : static_cast<double>(total.work_steps()) /
                                    total_work);
  table.print(out);
}

void record_metrics(const Profiler& prof, const std::string& prefix) {
  support::metrics::Registry& registry = support::metrics::registry();
  for (const auto& [name, c] : prof.buckets()) {
    const std::string base = prefix + "." + name + ".";
    registry.add(base + "apply_calls", c.op(OpClass::kApply).calls +
                                           c.op(OpClass::kIte).calls);
    registry.add(base + "quantify_calls", c.op(OpClass::kQuantify).calls);
    registry.add(base + "decide_calls", c.op(OpClass::kDecide).calls);
    registry.add(base + "permute_calls", c.op(OpClass::kPermute).calls);
    registry.add(base + "gc_runs", c.gc_runs);
    registry.add(base + "steps", c.work_steps());
    registry.add(base + "created_nodes", c.created_nodes);
    registry.set_gauge(base + "cache_hit_rate", c.cache_hit_rate());
    registry.max_gauge(base + "peak_nodes",
                       static_cast<double>(c.peak_nodes));
    registry.set_gauge(base + "seconds", c.total_seconds());
  }
}

// --- Flamegraph export -------------------------------------------------------

std::optional<FlameWeight> parse_flame_weight(std::string_view name) noexcept {
  if (name == "steps") return FlameWeight::kSteps;
  if (name == "seconds") return FlameWeight::kSeconds;
  if (name == "nodes") return FlameWeight::kNodes;
  return std::nullopt;
}

std::uint64_t flame_weight_of(const SpanCounters& counters,
                              FlameWeight weight) noexcept {
  switch (weight) {
    case FlameWeight::kSteps:
      return counters.work_steps();
    case FlameWeight::kSeconds:
      // Integer microseconds: the collapsed format carries integral
      // weights, and sub-microsecond self times are noise anyway.
      return static_cast<std::uint64_t>(
          std::llround(counters.total_seconds() * 1e6));
    case FlameWeight::kNodes:
      return counters.created_nodes;
  }
  return 0;
}

void write_collapsed(const Profiler& prof, std::ostream& out,
                     FlameWeight weight) {
  std::vector<std::string> lines;
  const auto& nodes = prof.path_nodes();
  for (PathId id = 0; id < nodes.size(); ++id) {
    const std::uint64_t w = flame_weight_of(nodes[id].counters, weight);
    if (w == 0) continue;  // zero self weight adds nothing to any view
    lines.push_back(prof.path_string(id) + " " + std::to_string(w));
  }
  std::sort(lines.begin(), lines.end());
  for (const std::string& line : lines) out << line << "\n";
}

std::string to_collapsed(const Profiler& prof, FlameWeight weight) {
  std::ostringstream os;
  write_collapsed(prof, os, weight);
  return os.str();
}

bool write_collapsed_file(const Profiler& prof, const std::string& path,
                          FlameWeight weight) {
  std::ofstream out(path);
  if (!out) return false;
  write_collapsed(prof, out, weight);
  return static_cast<bool>(out);
}

}  // namespace lr::bdd::profile

namespace lr::bdd {

profile::Profiler& Manager::profiler() {
  if (!profiler_) profiler_ = std::make_unique<profile::Profiler>();
  return *profiler_;
}

}  // namespace lr::bdd
