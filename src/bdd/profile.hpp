#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"

namespace lr::bdd::profile {

/// Classes of manager work the profiler attributes separately.
enum class OpClass : unsigned {
  kApply = 0,  ///< and / or / xor / diff / not
  kIte,
  kQuantify,  ///< exists / forall / and_exists / cofactor
  kDecide,    ///< leq / disjoint (no result BDD built)
  kPermute,
  kGc,
};
inline constexpr std::size_t kOpClassCount = 6;

[[nodiscard]] const char* op_class_name(OpClass op) noexcept;

/// Work charged to one call path. `steps` counts compute-cache probes
/// during the operation — one probe per non-terminal recursion step, so it
/// measures the symbolic work an operation actually performed, independent
/// of wall-clock noise.
struct SpanCounters {
  struct PerOp {
    std::uint64_t calls = 0;
    std::uint64_t steps = 0;
    double seconds = 0.0;
  };
  std::array<PerOp, kOpClassCount> ops{};

  std::uint64_t created_nodes = 0;
  std::uint64_t unique_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_reclaimed = 0;
  std::size_t peak_nodes = 0;  ///< manager high-water mark while charged

  [[nodiscard]] const PerOp& op(OpClass c) const noexcept {
    return ops[static_cast<unsigned>(c)];
  }

  /// apply + ite + quantify steps: the "how much BDD work" measure used to
  /// rank spans in the attribution table.
  [[nodiscard]] std::uint64_t work_steps() const noexcept;

  /// Compute-cache hit rate over everything charged here (0 when no probes).
  [[nodiscard]] double cache_hit_rate() const noexcept;

  /// Total seconds across all op classes.
  [[nodiscard]] double total_seconds() const noexcept;

  void accumulate(const SpanCounters& other);
};

namespace detail {
/// Global switch. Inline atomic so the ScopedOp constructor compiles to a
/// load-and-branch when profiling is off (the common case).
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns profiling on/off process-wide. While on, the trace layer's
/// per-thread span stack is kept alive (trace::keep_span_stack) so counter
/// deltas can be charged to the active span path even when no trace is
/// being collected. Idempotent.
void set_enabled(bool on);

/// Interned id of one call path in a Profiler's tree. Id 0 is the root
/// (the empty path: work charged with no span open).
using PathId = std::uint32_t;
inline constexpr PathId kRootPath = 0;

/// Deepest span nesting the profiler attributes exactly; deeper stacks
/// are truncated to their outermost kMaxPathDepth frames.
inline constexpr std::size_t kMaxPathDepth = 32;

/// Per-manager profile: counter deltas keyed by the *full* stack of trace
/// spans active when the operation ran (a call-path tree). The classic
/// flat per-span table is a rollup of the tree by leaf name, so the two
/// views conserve every counter exactly. Like the manager itself, a
/// Profiler is single-threaded; the batch executor gets one per worker via
/// its one-manager-per-task rule, and the intra engine merges worker
/// profilers into the dispatching manager's after every join.
class Profiler {
 public:
  Profiler();

  /// One node of the call-path tree. The root (id 0) has an empty name;
  /// children are created in charge order, so a parent's id is always
  /// smaller than its children's.
  struct PathNode {
    std::string name;            ///< span name of this frame
    PathId parent = kRootPath;
    std::vector<PathId> children;
    SpanCounters counters;       ///< self weight (not a subtree rollup)
  };

  /// The counters bucket for a span path (`frames[0]` outermost). Creates
  /// missing tree nodes on the way down. depth 0 charges the root.
  SpanCounters& path_counters(const char* const* frames, std::size_t depth);

  /// The whole tree, root first. Node ids index this vector.
  [[nodiscard]] const std::vector<PathNode>& path_nodes() const noexcept {
    return nodes_;
  }

  /// Collapsed-stack rendering of one path: "a;b;c". The root renders as
  /// "(unattributed)".
  [[nodiscard]] std::string path_string(PathId id) const;

  /// Flat per-span view: the tree rolled up by leaf span name (root
  /// charges land under "(unattributed)"). Rebuilt lazily; the reference
  /// stays valid until the next charge-then-buckets() round trip.
  [[nodiscard]] const std::map<std::string, SpanCounters>& buckets() const;

  [[nodiscard]] bool empty() const noexcept { return charges_ == 0; }

  /// Sum over all path nodes (== sum over all flat buckets).
  [[nodiscard]] SpanCounters totals() const;

  void clear();

  /// Merges another profiler's call-path tree into this one (aggregating
  /// intra workers / batch workers into one report). Matching is by span
  /// *content*, so identical paths from different threads coalesce.
  void merge(const Profiler& other);

 private:
  friend class ScopedOp;

  /// Child of `parent` named `name`, created on demand. Matches by string
  /// content — never by pointer — so identically-named spans from
  /// different string literals (or dynamic buffers) share one node.
  PathId intern_child(PathId parent, const char* name);

  int depth_ = 0;  ///< open ScopedOps; only the outermost charges
  std::uint64_t charges_ = 0;

  // One-entry cache: consecutive ops usually run under the same span
  // stack, and span names are string literals, so a pointer-wise frame
  // comparison is a cheap first test. On any pointer mismatch the lookup
  // falls back to content-compare interning (intern_child), so two
  // literals with equal text still reach the same node.
  std::array<const char*, kMaxPathDepth> last_frames_{};
  std::size_t last_depth_ = kMaxPathDepth + 1;  ///< invalid: never matches
  PathId last_id_ = kRootPath;

  std::vector<PathNode> nodes_;

  mutable bool flat_dirty_ = true;
  mutable std::map<std::string, SpanCounters> flat_;
};

/// RAII hook placed at every public Manager operation entry. Snapshots the
/// manager's counters, and on destruction charges the delta (and elapsed
/// time) to the call path active on this thread. Nested hooks (a GC fired
/// from inside an apply) do not charge: the
/// outermost operation owns the whole delta, so nothing is counted twice.
class ScopedOp {
 public:
  ScopedOp(Manager& mgr, OpClass op) noexcept {
    if (!enabled()) return;
    prof_ = &mgr.profiler();
    if (++prof_->depth_ > 1) return;
    mgr_ = &mgr;
    op_ = op;
    before_ = mgr.stats();
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedOp() {
    if (prof_ == nullptr) return;
    --prof_->depth_;
    if (mgr_ == nullptr) return;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    charge(seconds);
  }

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  void charge(double seconds);

  Profiler* prof_ = nullptr;
  Manager* mgr_ = nullptr;  ///< non-null only when this hook charges
  OpClass op_ = OpClass::kApply;
  ManagerStats before_{};
  std::chrono::steady_clock::time_point start_{};
};

/// Renders the per-span attribution table (sorted by work_steps, largest
/// first, TOTAL row last) for `--stats`. Durations use format_duration so
/// golden tests can normalize them.
void write_attribution_table(const Profiler& prof, std::ostream& out);

/// Mirrors the per-span counters into the metrics registry as
/// `<prefix>.<span>.<metric>` keys (e.g. bdd.program.group.quantify_calls).
void record_metrics(const Profiler& prof, const std::string& prefix = "bdd");

// --- Flamegraph export -------------------------------------------------------

/// What a collapsed-stack line weighs: recursion steps (the default —
/// deterministic and machine-independent), wall time (integer
/// microseconds) or created BDD nodes.
enum class FlameWeight {
  kSteps,
  kSeconds,
  kNodes,
};

/// Parses "steps" / "seconds" / "nodes" (the --flamegraph-weight values).
[[nodiscard]] std::optional<FlameWeight> parse_flame_weight(
    std::string_view name) noexcept;

/// The weight of one path node's self counters under `weight`.
[[nodiscard]] std::uint64_t flame_weight_of(const SpanCounters& counters,
                                            FlameWeight weight) noexcept;

/// Renders the call-path tree in Brendan Gregg's collapsed-stack format:
/// one "a;b;c <weight>" line per path with nonzero weight, sorted
/// lexicographically by path (deterministic), loadable in speedscope /
/// inferno / flamegraph.pl. Line weights are self weights, so they sum
/// exactly to totals() under the same measure.
void write_collapsed(const Profiler& prof, std::ostream& out,
                     FlameWeight weight = FlameWeight::kSteps);
[[nodiscard]] std::string to_collapsed(const Profiler& prof,
                                       FlameWeight weight = FlameWeight::kSteps);

/// Writes to_collapsed() to a file; false when the file cannot be opened.
bool write_collapsed_file(const Profiler& prof, const std::string& path,
                          FlameWeight weight = FlameWeight::kSteps);

}  // namespace lr::bdd::profile
