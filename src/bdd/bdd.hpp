#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bdd/chunked_pool.hpp"

namespace lr::bdd {

namespace profile {
class Profiler;
}  // namespace profile

/// Index of a node in the manager's node pool. Terminals are 0 (false) and
/// 1 (true); all other ids denote internal nodes.
using NodeId = std::uint32_t;

/// A boolean variable, identified by its creation index, which is also its
/// level: variable 0 is tested at the root, and a node's children always
/// test larger variables. The symbolic layer creates its variables in
/// declaration order (sym::Space), so that is the one order.
using VarIndex = std::uint32_t;

/// Identifier of a registered variable permutation (see
/// Manager::register_permutation); permutations are registered once and
/// reused so that their results can be memoized in the operation cache.
using PermId = std::uint32_t;

inline constexpr NodeId kFalseId = 0;
inline constexpr NodeId kTrueId = 1;
/// The terminals' variable: larger than every real one, so comparing
/// variables puts the terminals below every level.
inline constexpr VarIndex kTerminalVar = 0xffffffffu;

class Manager;

namespace detail {

/// One operation-cache entry: the key (op, a, b, c) and its result in four
/// 32-bit words. Node ids stay below 2^28 (kMaxNodes), so the 15-bit op
/// code rides in the four spare top nibbles, its most significant three
/// bits in `a`. The top bit of `a` is the entry's reference bit
/// (kCacheRefBit), set when a lookup hits it and cleared by a threshold
/// GC or a refused store; it is not part of the key.
/// All zeros is the empty entry (op 0).
struct CacheEntry {
  std::uint32_t a = 0, b = 0, c = 0, result = 0;
};
static_assert(sizeof(CacheEntry) == 16);

inline constexpr unsigned kCacheIdBits = 28;
inline constexpr std::uint32_t kCacheIdMask = (1u << kCacheIdBits) - 1;
/// Exclusive bound on node ids, so on the node pool's length.
inline constexpr std::size_t kMaxNodes = std::size_t{1} << kCacheIdBits;
/// The reference bit, in CacheEntry::a above the op code's top bits.
inline constexpr std::uint32_t kCacheRefBit = 1u << 31;

/// `id` with nibble `k` of `op` (0 = least significant) above its id bits.
constexpr std::uint32_t with_op_nibble(NodeId id, std::uint32_t op,
                                       unsigned k) noexcept {
  return id | (((op >> (4 * k)) & 0xfu) << kCacheIdBits);
}

/// Packs an unreferenced entry; `op` must be below 0x8000.
constexpr CacheEntry pack_entry(std::uint32_t op, NodeId a, NodeId b,
                                NodeId c, NodeId result) noexcept {
  return {with_op_nibble(a, op, 3), with_op_nibble(b, op, 2),
          with_op_nibble(c, op, 1), with_op_nibble(result, op, 0)};
}

constexpr std::uint32_t entry_op(const CacheEntry& e) noexcept {
  return ((e.a & ~kCacheRefBit) >> kCacheIdBits) << 12 |
         (e.b >> kCacheIdBits) << 8 | (e.c >> kCacheIdBits) << 4 |
         e.result >> kCacheIdBits;
}

constexpr NodeId entry_id(std::uint32_t word) noexcept {
  return word & kCacheIdMask;
}

/// True when two entries hold the same key (op, a, b, c), whatever their
/// reference bits.
constexpr bool same_key(const CacheEntry& x, const CacheEntry& y) noexcept {
  return ((x.a ^ y.a) & ~kCacheRefBit) == 0 && x.b == y.b && x.c == y.c &&
         ((x.result ^ y.result) >> kCacheIdBits) == 0;
}

static_assert(entry_op(pack_entry(0x7fff, kMaxNodes - 1, 0, 0, 0)) == 0x7fff);
static_assert(entry_id(pack_entry(0x7fff, 0, 0, 0, kMaxNodes - 1).result) ==
              kMaxNodes - 1);
static_assert(entry_id(pack_entry(0x7fff, kMaxNodes - 1, 0, 0, 0).a) ==
              kMaxNodes - 1);
static_assert((pack_entry(0x7fff, kMaxNodes - 1, 0, 0, 0).a & kCacheRefBit) ==
              0);
static_assert(entry_op(pack_entry(0x4321, 0, 0, 0, 0)) == 0x4321);

}  // namespace detail

/// Reference-counted handle to a BDD node.
///
/// `Bdd` is the only way user code holds on to BDD nodes; the manager's
/// garbage collector treats externally referenced nodes as roots. Handles
/// are cheap to copy (one refcount increment) and support the usual boolean
/// operator sugar. All operands of a binary operation must belong to the
/// same manager.
class Bdd {
 public:
  /// Empty handle (no manager). Only valid operations are assignment,
  /// destruction and valid().
  Bdd() noexcept = default;

  Bdd(const Bdd& other) noexcept;
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other) noexcept;
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True when the handle refers to a node in some manager.
  [[nodiscard]] bool valid() const noexcept { return mgr_ != nullptr; }

  [[nodiscard]] bool is_false() const noexcept { return id_ == kFalseId && valid(); }
  [[nodiscard]] bool is_true() const noexcept { return id_ == kTrueId && valid(); }
  [[nodiscard]] bool is_terminal() const noexcept { return id_ <= kTrueId; }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Manager* manager() const noexcept { return mgr_; }

  /// Structural equality: same manager, same node. Because BDDs are
  /// canonical this is semantic equivalence.
  [[nodiscard]] bool operator==(const Bdd& other) const noexcept {
    return mgr_ == other.mgr_ && id_ == other.id_;
  }
  [[nodiscard]] bool operator!=(const Bdd& other) const noexcept {
    return !(*this == other);
  }

  // Boolean algebra (forwarded to the manager; see Manager for semantics).
  [[nodiscard]] Bdd operator&(const Bdd& other) const;
  [[nodiscard]] Bdd operator|(const Bdd& other) const;
  [[nodiscard]] Bdd operator^(const Bdd& other) const;
  /// Complement. `~` is the canonical spelling (set complement); `!` is an
  /// alias kept for boolean-flavored call sites.
  [[nodiscard]] Bdd operator~() const;
  [[nodiscard]] Bdd operator!() const;
  Bdd& operator&=(const Bdd& other);
  Bdd& operator|=(const Bdd& other);
  Bdd& operator^=(const Bdd& other);

  /// Set difference `this ∧ ¬other` (transition/state-set subtraction).
  [[nodiscard]] Bdd minus(const Bdd& other) const;

  /// If-then-else with this as the condition.
  [[nodiscard]] Bdd ite(const Bdd& then_f, const Bdd& else_f) const;

  /// Implication as a BDD: `¬this ∨ other`.
  [[nodiscard]] Bdd implies(const Bdd& other) const;

  /// Biconditional `this ↔ other`.
  [[nodiscard]] Bdd iff(const Bdd& other) const;

  /// Decision test `this ⇒ other` evaluated without building the
  /// implication BDD (used heavily by Algorithm 2's group-containment
  /// checks).
  [[nodiscard]] bool leq(const Bdd& other) const;

  /// True iff the conjunction `this ∧ other` is unsatisfiable, computed
  /// without materializing the conjunction.
  [[nodiscard]] bool disjoint(const Bdd& other) const;

  /// Number of BDD nodes reachable from this root (including terminals).
  [[nodiscard]] std::size_t node_count() const;

 private:
  friend class Manager;
  Bdd(Manager* mgr, NodeId id) noexcept;  // takes a fresh reference

  Manager* mgr_ = nullptr;
  NodeId id_ = kFalseId;
};

/// Counters exposed for benchmarks and tests.
struct ManagerStats {
  std::size_t live_nodes = 0;        ///< currently allocated internal nodes
  std::size_t peak_nodes = 0;        ///< high-water mark of live nodes
  std::uint64_t created_nodes = 0;   ///< total make_node allocations
  std::uint64_t gc_runs = 0;         ///< garbage collections performed
  std::uint64_t gc_reclaimed = 0;    ///< nodes reclaimed across all GCs
  std::uint64_t unique_hits = 0;     ///< make_node found existing node
  std::uint64_t cache_lookups = 0;   ///< operation cache probes
  std::uint64_t cache_hits = 0;      ///< operation cache hits
  std::uint64_t cache_evictions = 0; ///< cached results lost at a collision
  std::uint64_t cache_resizes = 0;   ///< operation cache growth steps
  std::size_t peak_bytes = 0;        ///< high-water mark of pool+table+cache bytes
};

/// What caused a garbage collection.
enum class GcTrigger {
  kThreshold,  ///< live nodes crossed the adaptive gc_threshold
  kExplicit,   ///< collect_garbage() called by user code
};

[[nodiscard]] const char* gc_trigger_name(GcTrigger trigger) noexcept;

/// Structured record of one garbage collection (kept in Manager::gc_log()).
struct GcRecord {
  GcTrigger trigger = GcTrigger::kThreshold;
  std::size_t live_before = 0;
  std::size_t live_after = 0;
  std::size_t reclaimed = 0;
  /// Nodes kept only because a cache entry hit since the previous
  /// threshold collection names them as its result (0 for explicit runs).
  std::size_t retained = 0;
  double seconds = 0.0;
};

/// An irredundant sum of products, as Manager::isop computed it: a DAG of
/// cubes that no longer refers to the manager, so it may be walked any
/// number of times, with the manager in use or not, at no BDD cost.
class IsopCover {
 public:
  /// Invokes `fn` for every cube: values are per manager variable (as many
  /// as the manager had when the cover was computed), -1 = don't care,
  /// 0/1 = literal value. Cubes come in the same order on every walk.
  void foreach_cube(
      const std::function<void(std::span<const signed char>)>& fn) const;

 private:
  friend class Manager;
  // Entry 0 is the empty cover, entry 1 the cover holding only the empty
  // cube, and every other entry is ¬var·lo ∪ var·hi ∪ dc over the entries
  // it names.
  struct Node {
    VarIndex var;
    std::uint32_t lo, hi, dc;
  };
  static constexpr std::uint32_t kNoCubes = 0;
  static constexpr std::uint32_t kEmptyCube = 1;
  std::vector<Node> nodes_ = std::vector<Node>(2);
  std::uint32_t root_ = kNoCubes;
  std::uint32_t num_vars_ = 0;
};

/// A shared-node, reduced, ordered BDD manager (the CUDD substitute).
///
/// Design notes:
///  * No complement edges. This costs a constant factor on negation-heavy
///    workloads but keeps canonicity trivially simple; negation results are
///    memoized so repeated NOT is cheap.
///  * Nodes are pool indices (below 2^28). The pool grows in fixed chunks
///    of 2^16 nodes that never move (detail::ChunkedPool), so growth
///    copies nothing and the pool never holds an old and a new array at
///    once. The unique table is a chained hash over the pool, and the
///    operation cache is a direct-mapped array of 16-byte entries keyed
///    by (op, a, b, c), the 15-bit op code and a reference bit packed
///    into the ids' spare top bits (detail::CacheEntry). A key's slot is its mixed hash range-reduced by
///    multiply-shift (Lemire 2016), so the size need not be a power of two.
///    The cache starts at 2^12 entries and doubles, up to
///    Options::cache_bytes / 16 entries (the last step lands exactly on
///    that cap), whenever the evictions since its last resize reach a
///    quarter of its slots (CUDD-style growth under pressure), so a small
///    repair never pays for a large cache. Its full capacity is reserved up
///    front and a resize rehashes in place, so it never holds two arrays.
///    Once at the cap, a slot gives its entry a second chance (CLOCK,
///    Corbató 1968): a hit sets the entry's reference bit, and a colliding
///    store clears a set bit and drops the newcomer instead of overwriting.
///    So an entry that every fixpoint iteration hits outlives the cold
///    entries stored once between two of its hits. Entries survive GC
///    unless they name a freed node, referenced or not; those are dropped
///    in the same collection, before any slot is reused, so a recycled
///    slot can never alias a stale entry (slots are only recycled by the
///    GC itself). A threshold collection (from maybe_gc) also keeps the
///    results of the entries hit since the previous one whose operands
///    survive, and then clears every reference bit; an explicit
///    collect_garbage() keeps only what external handles reach.
///  * Garbage collection is mark-and-sweep from externally referenced
///    nodes. It runs only at public operation entry points, never inside a
///    recursion, so intermediate results need no protection.
///  * Single-threaded by design: one synthesis run is one engine instance,
///    matching the paper's tool. Use one Manager per thread for coarse
///    parallelism.
class Manager {
 public:
  struct Options {
    /// Initial unique-table size, rounded up to a power of two (at least
    /// 64); the table doubles whenever the pool outgrows it. The node pool
    /// itself always grows in fixed chunks of 2^16 nodes, so a small value
    /// here forces bucket growth only, not pool growth.
    std::size_t initial_capacity = 1u << 16;
    /// Bytes the operation cache may grow to. Its entry cap is
    /// cache_bytes / 16 (at least 1, at most 2^32 entries, or the
    /// constructor throws std::invalid_argument); the default 8 MiB holds
    /// 524,288 entries. The cache starts at min(2^12, cap) entries and
    /// grows under eviction pressure until it reaches the cap. With the
    /// hit set kept across threshold GCs, a larger cap buys few steps
    /// (12 MiB saves 1.5% on chain-tail) for its resident bytes.
    std::size_t cache_bytes = std::size_t{8} << 20;
    /// GC triggers when live nodes exceed this (adapts upward when GC
    /// reclaims too little; nodes kept only for the op cache's hit set
    /// do not count against it).
    std::size_t gc_threshold = 1u << 18;
  };

  Manager();
  explicit Manager(const Options& options);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Creates a new boolean variable at the bottom of the order.
  VarIndex new_var();

  /// Number of variables created so far.
  [[nodiscard]] std::uint32_t var_count() const noexcept {
    return num_vars_;
  }

  [[nodiscard]] Bdd bdd_false();
  [[nodiscard]] Bdd bdd_true();

  /// The function "variable v" (positive literal).
  [[nodiscard]] Bdd bdd_var(VarIndex v);

  /// The function "¬v" (negative literal).
  [[nodiscard]] Bdd bdd_nvar(VarIndex v);

  /// Conjunction of the positive literals of `vars` (a quantification cube).
  /// The variables may be listed in any order.
  [[nodiscard]] Bdd make_cube(std::span<const VarIndex> vars);

  // --- Boolean operations -------------------------------------------------
  [[nodiscard]] Bdd apply_and(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_or(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_xor(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_diff(const Bdd& f, const Bdd& g);  ///< f ∧ ¬g
  [[nodiscard]] Bdd apply_not(const Bdd& f);
  [[nodiscard]] Bdd apply_ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// f ⇒ g decided without constructing f ∧ ¬g.
  [[nodiscard]] bool leq(const Bdd& f, const Bdd& g);

  /// f ∧ g == false decided without constructing the conjunction.
  [[nodiscard]] bool disjoint(const Bdd& f, const Bdd& g);

  // --- Quantification ------------------------------------------------------
  /// ∃ cube. f  (cube must be a conjunction of positive literals).
  [[nodiscard]] Bdd exists(const Bdd& f, const Bdd& cube);

  /// ∀ cube. f.
  [[nodiscard]] Bdd forall(const Bdd& f, const Bdd& cube);

  /// ∃ cube. (f ∧ g) computed as one pass (the relational product at the
  /// heart of image/preimage computation).
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g, const Bdd& cube);

  // --- Variable permutation -------------------------------------------------
  /// Registers the permutation mapping variable v to perm[v]. `perm` must
  /// have one entry per existing variable and be a bijection. Returns an id
  /// usable with permute(); register each permutation once and reuse it.
  /// Throws std::length_error past 32,756 permutations (the op codes they
  /// key the cache with are spent).
  PermId register_permutation(std::span<const VarIndex> perm);

  /// Applies a registered permutation to f.
  [[nodiscard]] Bdd permute(const Bdd& f, PermId perm);

  // --- Cofactors ------------------------------------------------------------
  /// f with variable v fixed to `value`.
  [[nodiscard]] Bdd cofactor(const Bdd& f, VarIndex v, bool value);

  // --- Solutions -------------------------------------------------------------
  /// Number of satisfying assignments of f over `nvars` variables
  /// (as a double; exact while representable).
  [[nodiscard]] double sat_count(const Bdd& f, std::uint32_t nvars);

  /// A single satisfying minterm of f over exactly the variables of `cube`
  /// (which must contain support(f)). Don't-care variables are fixed to 0,
  /// so the result is deterministic. f must be satisfiable.
  [[nodiscard]] Bdd pick_minterm(const Bdd& f, const Bdd& cube);

  /// Invokes `fn` for every satisfying assignment of f over the variables
  /// of `cube` (which must contain support(f)), passing values aligned with
  /// the cube's variables in variable order. Exponential; for small spaces
  /// (tests, explicit cross-validation, example output).
  void foreach_minterm(const Bdd& f, const Bdd& cube,
                       const std::function<void(std::span<const bool>)>& fn);

  /// An irredundant sum of products f with lower ≤ f ≤ upper: every cube
  /// lies inside `upper` and covers a minterm of `lower` that no other cube
  /// covers; lower == upper gives a cover of exactly that function. This is
  /// Minato–Morreale's ISOP (Minato, SASIMI 1992) over the interval
  /// [lower, upper], memoized on (lower, upper) for the call; its
  /// diff/and/or steps go through the op cache. Throws
  /// std::invalid_argument unless lower ≤ upper. Used for printing
  /// synthesized programs compactly.
  [[nodiscard]] IsopCover isop(const Bdd& lower, const Bdd& upper);

  /// Evaluates f under a total assignment (indexed by variable; missing
  /// trailing variables default to false). Linear in the depth of f.
  [[nodiscard]] bool eval(const Bdd& f, std::span<const bool> assignment) const;

  /// Conjunction of the variables f depends on.
  [[nodiscard]] Bdd support_cube(const Bdd& f);

  /// Variables f depends on, ascending.
  [[nodiscard]] std::vector<VarIndex> support(const Bdd& f);

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] std::size_t node_count(const Bdd& f);
  [[nodiscard]] std::size_t live_nodes() const noexcept;
  [[nodiscard]] const ManagerStats& stats() const noexcept {
    // live_nodes changes on every apply; refresh it at observation time so
    // snapshots are accurate even when no GC has run.
    stats_.live_nodes = live_nodes();
    return stats_;
  }

  /// Forces a garbage collection (also runs automatically under pressure).
  void collect_garbage();

  /// Checks the engine's structural invariants and throws std::logic_error
  /// naming the first one broken:
  ///  * every live node is findable in its unique-table bucket, and no
  ///    (var, lo, hi) triple occurs twice;
  ///  * a node's children test larger variables, and lo != hi;
  ///  * the free list holds only free slots, none of them on a chain;
  ///  * no op-cache entry names a free slot (a GC drops every entry that
  ///    names a node it frees).
  /// Linear in the pool, table and cache. Builds configured with the CMake
  /// option LR_BDD_CHECK run it after every GC, unique-table growth, new
  /// pool chunk and op-cache growth, and abort on a failure.
  void check_invariants() const;

  // --- Memory & structure telemetry ------------------------------------------
  /// Live internal nodes per level, that is per variable. One pool walk,
  /// no allocation beyond the result vector.
  [[nodiscard]] std::vector<std::size_t> level_histogram() const;

  /// Unique-table shape: total buckets and buckets with at least one node.
  [[nodiscard]] std::size_t unique_bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::size_t unique_buckets_used() const;

  /// Unique-table load factor (live nodes per bucket) — cheap enough for a
  /// trace counter lane.
  [[nodiscard]] double unique_load() const noexcept {
    return buckets_.empty() ? 0.0
                            : static_cast<double>(live_nodes()) /
                                  static_cast<double>(buckets_.size());
  }

  /// Operation-cache shape: current entries (the cache grows under
  /// eviction pressure, so this changes over a run), the cap it may grow
  /// to (Options::cache_bytes / 16), and occupied entries (one walk).
  [[nodiscard]] std::size_t cache_entry_count() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] std::size_t cache_entry_cap() const noexcept {
    return cache_cap_;
  }
  [[nodiscard]] std::size_t cache_entries_used() const;

  /// Bytes currently held by the node pool, unique table and op cache:
  /// node count × sizeof(Node) plus the bucket and cache entry counts ×
  /// their sizes. Sizes, not the pool's whole chunks or the cache's
  /// reserved capacity, so the figure is deterministic.
  [[nodiscard]] std::size_t allocated_bytes() const noexcept {
    return nodes_.size() * sizeof(Node) + buckets_.size() * sizeof(NodeId) +
           cache_.size() * sizeof(CacheEntry);
  }

  /// Structured log of every GC this manager ran (capped; see
  /// gc_log_dropped()).
  [[nodiscard]] const std::vector<GcRecord>& gc_log() const noexcept {
    return gc_log_;
  }
  [[nodiscard]] std::uint64_t gc_log_dropped() const noexcept {
    return gc_log_dropped_;
  }

  /// This manager's span-attribution profile (created on first use). Hooks
  /// in the public operations only feed it while profile::enabled(); like
  /// the manager itself it is single-threaded.
  [[nodiscard]] profile::Profiler& profiler();

  /// Graphviz dot rendering of one function (documentation / debugging).
  [[nodiscard]] std::string to_dot(const Bdd& f, const std::string& name);

 private:
  friend class Bdd;

  struct Node {
    VarIndex var;       // kTerminalVar for terminals, kFreeVar for free slots
    NodeId lo;
    NodeId hi;
    NodeId next;        // unique-table chain / free-list link
    std::uint32_t refs; // external references only
  };

  using CacheEntry = detail::CacheEntry;

  static constexpr VarIndex kFreeVar = 0xfffffffeu;

  // Operation codes for the cache (15 bits; see detail::CacheEntry).
  enum Op : std::uint32_t {
    kOpNone = 0,
    kOpAnd,
    kOpOr,
    kOpXor,
    kOpDiff,
    kOpNot,
    kOpIte,
    kOpExists,
    kOpForall,
    kOpAndExists,
    kOpLeq,
    kOpDisjoint,
    kOpPermBase,  // kOpPermBase + perm id, below kOpLimit
    kOpLimit = 0x8000
  };

  /// log2 of the nodes per pool chunk (2^16 nodes, 1.25 MiB).
  static constexpr unsigned kPoolChunkBits = 16;

  void init_pool(std::size_t capacity);
  /// check_invariants() after a structural change, in LR_BDD_CHECK builds
  /// only (a no-op otherwise); prints `after` and aborts on a failure.
#ifdef LR_BDD_CHECK
  void self_check(const char* after) const;
#else
  void self_check(const char* /*after*/) const noexcept {}
#endif
  NodeId make_node(VarIndex var, NodeId lo, NodeId hi);
  NodeId alloc_node();
  void grow_buckets();
  void maybe_gc();
  /// Returns the nodes kept only for the cache's hit set (GcRecord).
  std::size_t collect_garbage_impl(GcTrigger trigger);
  /// Marks what `root` reaches; returns the nodes it newly marked.
  std::size_t mark(NodeId root, std::vector<NodeId>& stack);

  /// Updates the peak-byte watermark after a container grew.
  void note_peak_bytes() noexcept {
    const std::size_t bytes = allocated_bytes();
    if (bytes > stats_.peak_bytes) stats_.peak_bytes = bytes;
  }

  /// Unique-table bucket of a (var, lo, hi) triple.
  [[nodiscard]] std::size_t unique_bucket(VarIndex var, NodeId lo,
                                          NodeId hi) const noexcept;

  void inc_ref(NodeId id) noexcept;
  void dec_ref(NodeId id) noexcept;
  [[nodiscard]] Bdd wrap(NodeId id) noexcept { return Bdd(this, id); }

  /// A probed key, packed and hashed once by cache_get so that the
  /// cache_put after a miss reuses both.
  struct CacheKey {
    CacheEntry entry;        // the key; its result bits are zero
    std::uint64_t hash = 0;  // the slot follows from it and the size
  };
  [[nodiscard]] bool cache_get(std::uint32_t op, NodeId a, NodeId b, NodeId c,
                               CacheKey& key, NodeId& out);
  void cache_put(const CacheKey& key, NodeId result);
  [[nodiscard]] std::size_t cache_slot(std::uint64_t hash) const noexcept;
  void grow_cache();

  NodeId and_rec(NodeId f, NodeId g);
  NodeId or_rec(NodeId f, NodeId g);
  NodeId xor_rec(NodeId f, NodeId g);
  NodeId diff_rec(NodeId f, NodeId g);
  NodeId not_rec(NodeId f);
  NodeId ite_rec(NodeId f, NodeId g, NodeId h);
  NodeId exists_rec(NodeId f, NodeId cube);
  NodeId forall_rec(NodeId f, NodeId cube);
  NodeId and_exists_rec(NodeId f, NodeId g, NodeId cube);
  bool leq_rec(NodeId f, NodeId g);
  bool disjoint_rec(NodeId f, NodeId g);
  NodeId permute_rec(NodeId f, PermId perm);
  NodeId pick_rec(NodeId f, NodeId cube);

  [[nodiscard]] VarIndex var_of(NodeId id) const noexcept {
    return nodes_[id].var;
  }

  detail::ChunkedPool<Node, kPoolChunkBits> nodes_;
  std::vector<NodeId> buckets_;   // unique table heads; size is a power of 2
  std::size_t bucket_mask_ = 0;
  NodeId free_head_ = 0;
  std::size_t free_count_ = 0;
  bool has_free_ = false;

  std::vector<CacheEntry> cache_;  // capacity reserved to cache_cap_ up front
  std::size_t cache_cap_ = 0;
  std::size_t cache_evictions_since_resize_ = 0;

  std::uint32_t num_vars_ = 0;
  std::vector<std::vector<VarIndex>> permutations_;

  std::size_t gc_threshold_;

  /// Capped structured logs (observability, not correctness): once full,
  /// further GC records only bump the dropped counter.
  static constexpr std::size_t kMaxGcRecords = 1024;
  std::vector<GcRecord> gc_log_;
  std::uint64_t gc_log_dropped_ = 0;

  std::unique_ptr<profile::Profiler> profiler_;

  mutable ManagerStats stats_;
};

}  // namespace lr::bdd

template <>
struct std::hash<lr::bdd::Bdd> {
  std::size_t operator()(const lr::bdd::Bdd& b) const noexcept {
    return std::hash<const void*>()(static_cast<const void*>(b.manager())) ^
           (static_cast<std::size_t>(b.id()) * 0x9e3779b97f4a7c15ull);
  }
};
