#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "bdd/profile.hpp"
#include "support/trace.hpp"

namespace lr::bdd {

namespace {

/// Mixes (var, lo, hi) into a unique-table bucket index.
inline std::size_t hash_triple(VarIndex var, NodeId lo, NodeId hi) noexcept {
  std::uint64_t h = var;
  h = h * 0x9e3779b97f4a7c15ull + lo;
  h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull + hi;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

/// murmur3's fmix64 finalizer.
inline std::uint64_t fmix64(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

/// Mixes an op-cache key. Multiply-shift slots read the high bits, which
/// the last `+ c` reaches only through carries, so fmix64 finishes it.
inline std::uint64_t hash_cache(std::uint32_t op, NodeId a, NodeId b,
                                NodeId c) noexcept {
  std::uint64_t h = op;
  h = h * 0x9e3779b97f4a7c15ull + a;
  h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9ull + b;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull + c;
  return fmix64(h ^ (h >> 33));
}

/// Operation-cache entries a fresh manager starts with (see Manager).
constexpr std::size_t kInitialCacheEntries = std::size_t{1} << 12;

}  // namespace

const char* gc_trigger_name(GcTrigger trigger) noexcept {
  switch (trigger) {
    case GcTrigger::kThreshold: return "threshold";
    case GcTrigger::kExplicit: return "explicit";
  }
  return "?";
}

// --- Bdd handle --------------------------------------------------------------

Bdd::Bdd(Manager* mgr, NodeId id) noexcept : mgr_(mgr), id_(id) {
  if (mgr_ != nullptr) mgr_->inc_ref(id_);
}

Bdd::Bdd(const Bdd& other) noexcept : mgr_(other.mgr_), id_(other.id_) {
  if (mgr_ != nullptr) mgr_->inc_ref(id_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), id_(other.id_) {
  other.mgr_ = nullptr;
  other.id_ = kFalseId;
}

Bdd& Bdd::operator=(const Bdd& other) noexcept {
  if (this == &other) return *this;
  if (other.mgr_ != nullptr) other.mgr_->inc_ref(other.id_);
  if (mgr_ != nullptr) mgr_->dec_ref(id_);
  mgr_ = other.mgr_;
  id_ = other.id_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr) mgr_->dec_ref(id_);
  mgr_ = other.mgr_;
  id_ = other.id_;
  other.mgr_ = nullptr;
  other.id_ = kFalseId;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_ != nullptr) mgr_->dec_ref(id_);
}

Bdd Bdd::operator&(const Bdd& other) const { return mgr_->apply_and(*this, other); }
Bdd Bdd::operator|(const Bdd& other) const { return mgr_->apply_or(*this, other); }
Bdd Bdd::operator^(const Bdd& other) const { return mgr_->apply_xor(*this, other); }
Bdd Bdd::operator~() const { return mgr_->apply_not(*this); }
Bdd Bdd::operator!() const { return mgr_->apply_not(*this); }

Bdd& Bdd::operator&=(const Bdd& other) {
  *this = mgr_->apply_and(*this, other);
  return *this;
}

Bdd& Bdd::operator|=(const Bdd& other) {
  *this = mgr_->apply_or(*this, other);
  return *this;
}

Bdd& Bdd::operator^=(const Bdd& other) {
  *this = mgr_->apply_xor(*this, other);
  return *this;
}

Bdd Bdd::minus(const Bdd& other) const { return mgr_->apply_diff(*this, other); }

Bdd Bdd::ite(const Bdd& then_f, const Bdd& else_f) const {
  return mgr_->apply_ite(*this, then_f, else_f);
}

Bdd Bdd::implies(const Bdd& other) const {
  return mgr_->apply_or(mgr_->apply_not(*this), other);
}

Bdd Bdd::iff(const Bdd& other) const {
  return mgr_->apply_not(mgr_->apply_xor(*this, other));
}

bool Bdd::leq(const Bdd& other) const { return mgr_->leq(*this, other); }

bool Bdd::disjoint(const Bdd& other) const {
  return mgr_->disjoint(*this, other);
}

std::size_t Bdd::node_count() const { return mgr_->node_count(*this); }

// --- Manager construction ------------------------------------------------------

Manager::Manager() : Manager(Options{}) {}

Manager::Manager(const Options& options)
    : gc_threshold_(options.gc_threshold) {
  // Multiply-shift slots need the size to fit 32 bits.
  cache_cap_ = options.cache_bytes / sizeof(CacheEntry);
  if (cache_cap_ == 0 || cache_cap_ > (std::size_t{1} << 32)) {
    throw std::invalid_argument(
        "bdd::Manager: cache_bytes must hold 1 to 2^32 cache entries");
  }
  // Reserve the cap once so every later resize stays inside this one
  // allocation; only the pages actually resized into get touched.
  cache_.reserve(cache_cap_);
  cache_.resize(std::min(kInitialCacheEntries, cache_cap_));
  init_pool(options.initial_capacity < 64 ? 64 : options.initial_capacity);
  note_peak_bytes();
}

Manager::~Manager() = default;

void Manager::init_pool(std::size_t capacity) {
  // Terminal nodes occupy slots 0 and 1 and are never collected. The
  // first push allocates the pool's chunk table and first chunk, after the
  // cache's reserve and before the buckets: the setup time of thousands of
  // fresh managers follows this heap placement (EXPERIMENTS.md "Node pool
  // in fixed chunks").
  nodes_.push_back(Node{kTerminalVar, kFalseId, kFalseId, 0, 1});
  nodes_.push_back(Node{kTerminalVar, kTrueId, kTrueId, 0, 1});
  std::size_t buckets = 1;
  while (buckets < capacity) buckets <<= 1;
  buckets_.assign(buckets, kFalseId);
  bucket_mask_ = buckets - 1;
}

VarIndex Manager::new_var() {
  const VarIndex v = num_vars_++;
  level_of_var_.push_back(v);   // new variables start at the bottom level
  var_at_level_.push_back(v);
  return v;
}

Bdd Manager::bdd_false() { return wrap(kFalseId); }
Bdd Manager::bdd_true() { return wrap(kTrueId); }

Bdd Manager::bdd_var(VarIndex v) {
  assert(v < num_vars_);
  return wrap(make_node(v, kFalseId, kTrueId));
}

Bdd Manager::bdd_nvar(VarIndex v) {
  assert(v < num_vars_);
  return wrap(make_node(v, kTrueId, kFalseId));
}

Bdd Manager::make_cube(std::span<const VarIndex> vars) {
  std::vector<VarIndex> sorted(vars.begin(), vars.end());
  std::sort(sorted.begin(), sorted.end(), [this](VarIndex a, VarIndex b) {
    return level_of_var_[a] < level_of_var_[b];
  });
  NodeId acc = kTrueId;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    assert(*it < num_vars_);
    if (it != sorted.rbegin() && *it == *(it - 1)) continue;  // dedupe
    acc = make_node(*it, kFalseId, acc);
  }
  return wrap(acc);
}

// --- Node pool / unique table ----------------------------------------------------

NodeId Manager::alloc_node() {
  if (has_free_) {
    const NodeId id = free_head_;
    free_head_ = nodes_[id].next;
    --free_count_;
    has_free_ = free_count_ > 0;
    return id;
  }
  // Cache entries pack the op code above 28-bit node ids.
  if (nodes_.size() == detail::kMaxNodes) {
    throw std::length_error("bdd::Manager: node pool is full (2^28 nodes)");
  }
  // A free slot until make_node fills it, so grow_buckets leaves it out of
  // the chains (a var-0 slot would be linked in, and make_node's `next`
  // write would then cut off the rest of that bucket).
  const std::size_t chunks = nodes_.chunk_count();
  nodes_.push_back(Node{kFreeVar, kFalseId, kFalseId, kFalseId, 0});
  if (nodes_.chunk_count() != chunks) self_check("a new pool chunk");
  if (nodes_.size() > buckets_.size()) grow_buckets();
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Manager::make_node(VarIndex var, NodeId lo, NodeId hi) {
  if (lo == hi) return lo;  // reduction rule
  const std::size_t bucket = hash_triple(var, lo, hi) & bucket_mask_;
  for (NodeId cur = buckets_[bucket]; cur != kFalseId; cur = nodes_[cur].next) {
    const Node& n = nodes_[cur];
    if (n.var == var && n.lo == lo && n.hi == hi) {
      ++stats_.unique_hits;
      return cur;
    }
  }
  const NodeId id = alloc_node();
  Node& n = nodes_[id];
  n.var = var;
  n.lo = lo;
  n.hi = hi;
  n.refs = 0;
  // Re-hash: alloc_node may have grown the bucket array.
  const std::size_t b = hash_triple(var, lo, hi) & bucket_mask_;
  n.next = buckets_[b];
  buckets_[b] = id;
  ++stats_.created_nodes;
  const std::size_t live = nodes_.size() - 2 - free_count_;
  if (live + 2 > stats_.peak_nodes) {
    stats_.peak_nodes = live + 2;
    note_peak_bytes();
  }
  return id;
}

void Manager::grow_buckets() {
  const std::size_t new_size = buckets_.size() * 2;
  std::vector<NodeId> fresh(new_size, kFalseId);
  const std::size_t mask = new_size - 1;
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    Node& n = nodes_[id];
    if (n.var == kFreeVar || n.var == kTerminalVar) continue;
    const std::size_t b = hash_triple(n.var, n.lo, n.hi) & mask;
    n.next = fresh[b];
    fresh[b] = id;
  }
  buckets_ = std::move(fresh);
  bucket_mask_ = mask;
  note_peak_bytes();
  self_check("unique-table growth");
}

std::size_t Manager::unique_bucket(VarIndex var, NodeId lo,
                                   NodeId hi) const noexcept {
  return hash_triple(var, lo, hi) & bucket_mask_;
}

void Manager::inc_ref(NodeId id) noexcept { ++nodes_[id].refs; }

void Manager::dec_ref(NodeId id) noexcept {
  assert(nodes_[id].refs > 0);
  --nodes_[id].refs;
}

std::size_t Manager::live_nodes() const noexcept {
  return nodes_.size() - free_count_;
}

void Manager::maybe_gc() {
  if (live_nodes() < gc_threshold_) return;
  const std::size_t retained = collect_garbage_impl(GcTrigger::kThreshold);
  // If the collection freed little, raise the threshold so we do not thrash.
  // The nodes kept only for the cache's hit set do not count: the next
  // collection frees them unless they are hit again.
  if ((live_nodes() - retained) * 4 > gc_threshold_ * 3) gc_threshold_ *= 2;
}

std::size_t Manager::mark(NodeId root, std::vector<NodeId>& stack) {
  std::size_t marked = 0;
  stack.push_back(root);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    Node& n = nodes_[id];
    if (n.var == kTerminalVar) continue;
    // The mark bit is borrowed from the top bit of `var`; kFreeVar and
    // kTerminalVar never collide with real variables (< 2^31 of them).
    if ((n.var & 0x80000000u) != 0) continue;  // already marked
    n.var |= 0x80000000u;
    ++marked;
    stack.push_back(n.lo);
    stack.push_back(n.hi);
  }
  return marked;
}

void Manager::collect_garbage() { collect_garbage_impl(GcTrigger::kExplicit); }

std::size_t Manager::collect_garbage_impl(GcTrigger trigger) {
  // Nested inside whatever operation triggered the collection: the depth
  // guard keeps the outer hook as the sole accountant, so this only charges
  // for explicitly requested collections.
  profile::ScopedOp profiled(*this, profile::OpClass::kGc);
  LR_TRACE_SPAN_NAMED(span, "bdd.gc");
  const auto gc_start = std::chrono::steady_clock::now();
  const std::size_t live_before = live_nodes();
  ++stats_.gc_runs;
  std::vector<NodeId> stack;
  stack.reserve(1024);
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.var != kFreeVar && n.refs > 0 && (n.var & 0x80000000u) == 0) {
      mark(id, stack);
    }
  }
  // A threshold collection also keeps the cache's hit set: an entry hit
  // since the last collection whose operands survive keeps its result, so
  // the fixpoint that hit it finds it again instead of recomputing it. One
  // pass in slot order; terminals read as marked (kTerminalVar has the mark
  // bit), and no entry names a free node, since the collection that frees
  // a node drops every entry naming it.
  std::size_t retained = 0;
  if (trigger == GcTrigger::kThreshold) {
    const auto is_marked = [this](std::uint32_t word) {
      return (nodes_[detail::entry_id(word)].var & 0x80000000u) != 0;
    };
    for (const CacheEntry& e : cache_) {
      if ((e.a & detail::kCacheRefBit) != 0 && is_marked(e.a) &&
          is_marked(e.b) && is_marked(e.c)) {
        retained += mark(detail::entry_id(e.result), stack);
      }
    }
  }
  // Sweep: rebuild the unique table from marked nodes, free the rest, and
  // record the survivors (terminals included) in a bitmap for the cache
  // pass below.
  std::vector<std::uint64_t> live((nodes_.size() + 63) / 64, 0);
  live[0] = 0b11;
  std::fill(buckets_.begin(), buckets_.end(), kFalseId);
  free_head_ = 0;
  free_count_ = 0;
  has_free_ = false;
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    Node& n = nodes_[id];
    if (n.var == kFreeVar) {
      n.next = free_head_;
      free_head_ = id;
      ++free_count_;
      has_free_ = true;
      continue;
    }
    if ((n.var & 0x80000000u) != 0) {
      n.var &= 0x7fffffffu;  // clear mark, keep node
      live[id >> 6] |= std::uint64_t{1} << (id & 63);
      const std::size_t b = hash_triple(n.var, n.lo, n.hi) & bucket_mask_;
      n.next = buckets_[b];
      buckets_[b] = id;
    } else {
      ++stats_.gc_reclaimed;
      n.var = kFreeVar;
      n.next = free_head_;
      free_head_ = id;
      ++free_count_;
      has_free_ = true;
    }
  }
  // Op-cache entries whose operands and result all survived stay valid:
  // a live node is never rewritten by a collection. Drop the rest now,
  // before any freed slot can be reused and alias them. (Empty entries
  // name only node 0.) A threshold collection also clears every reference
  // bit, so the next one keeps only what is hit from here on.
  const auto is_live = [&live](std::uint32_t word) {
    const NodeId id = detail::entry_id(word);
    return ((live[id >> 6] >> (id & 63)) & 1u) != 0;
  };
  const std::uint32_t kept_bits =
      trigger == GcTrigger::kThreshold ? ~detail::kCacheRefBit : ~0u;
  for (CacheEntry& e : cache_) {
    if (!is_live(e.a) || !is_live(e.b) || !is_live(e.c) ||
        !is_live(e.result)) {
      e = CacheEntry{};
    } else {
      e.a &= kept_bits;
    }
  }
  stats_.live_nodes = live_nodes();
  const double gc_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - gc_start)
          .count();
  if (gc_log_.size() < kMaxGcRecords) {
    GcRecord record;
    record.trigger = trigger;
    record.live_before = live_before;
    record.live_after = stats_.live_nodes;
    record.reclaimed = live_before - stats_.live_nodes;
    record.retained = retained;
    record.seconds = gc_seconds;
    gc_log_.push_back(record);
  } else {
    ++gc_log_dropped_;
  }
  if (support::trace::enabled()) {
    span.attr("trigger", std::string_view(gc_trigger_name(trigger)));
    span.attr("live_before", static_cast<std::uint64_t>(live_before));
    span.attr("live_after", static_cast<std::uint64_t>(stats_.live_nodes));
    span.attr("retained", static_cast<std::uint64_t>(retained));
  }
  self_check("a garbage collection");
  return retained;
}

// --- Invariants ------------------------------------------------------------------

void Manager::check_invariants() const {
  const auto fail = [](const std::string& what, std::size_t at) {
    throw std::logic_error("bdd::Manager invariant broken: " + what +
                           " (at " + std::to_string(at) + ")");
  };
  const std::size_t size = nodes_.size();
  const auto in_pool = [size](NodeId id) { return id < size; };
  if (size < 2 || nodes_[kFalseId].var != kTerminalVar ||
      nodes_[kTrueId].var != kTerminalVar) {
    fail("terminals missing", 0);
  }
  // Bucket chains: each node is linked once, under its own triple, and no
  // triple is linked twice (equal triples would share a bucket).
  std::vector<bool> on_chain(size, false);
  std::vector<NodeId> chain;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    chain.clear();
    for (NodeId cur = buckets_[b]; cur != kFalseId; cur = nodes_[cur].next) {
      if (!in_pool(cur) || cur == kTrueId) fail("chain leaves the pool", cur);
      if (on_chain[cur]) fail("node linked twice", cur);
      on_chain[cur] = true;
      const Node& n = nodes_[cur];
      if (n.var == kFreeVar) fail("free slot on a bucket chain", cur);
      if (n.var >= num_vars_) fail("bad variable on a chain", cur);
      if (unique_bucket(n.var, n.lo, n.hi) != b) {
        fail("node in a wrong bucket", cur);
      }
      for (const NodeId other : chain) {
        const Node& o = nodes_[other];
        if (o.var == n.var && o.lo == n.lo && o.hi == n.hi) {
          fail("duplicate (var, lo, hi) triple", cur);
        }
      }
      chain.push_back(cur);
    }
  }
  // Every node that is not a free slot is reduced, ordered and findable.
  for (NodeId id = 2; id < size; ++id) {
    const Node& n = nodes_[id];
    if (n.var == kFreeVar) continue;
    if (n.var >= num_vars_) fail("bad variable or stray mark bit", id);
    if (!on_chain[id]) fail("live node not findable in its bucket", id);
    if (n.lo == n.hi) fail("redundant node (lo == hi)", id);
    for (const NodeId child : {n.lo, n.hi}) {
      if (!in_pool(child) || nodes_[child].var == kFreeVar) {
        fail("child is not a node", id);
      }
      if (node_level(nodes_[child].var) <= level_of_var_[n.var]) {
        fail("child not at a deeper level", id);
      }
    }
  }
  // The free list: free_count_ distinct free slots, so none on a chain.
  if (has_free_ != (free_count_ > 0)) fail("has_free_ disagrees", free_count_);
  std::vector<bool> listed(size, false);
  NodeId cur = free_head_;
  for (std::size_t k = 0; k < free_count_; ++k) {
    if (!in_pool(cur) || cur < 2) fail("free list leaves the pool", cur);
    if (listed[cur]) fail("free list loops", cur);
    listed[cur] = true;
    if (nodes_[cur].var != kFreeVar) fail("live node on the free list", cur);
    cur = nodes_[cur].next;
  }
  // Op-cache entries name nodes only (empty entries name node 0).
  for (std::size_t slot = 0; slot < cache_.size(); ++slot) {
    const CacheEntry& e = cache_[slot];
    const std::uint32_t op = detail::entry_op(e);
    if (op == kOpNone) continue;
    if (op >= kOpPermBase + permutations_.size()) {
      fail("unknown op code in the op cache", slot);
    }
    for (const std::uint32_t word : {e.a, e.b, e.c, e.result}) {
      const NodeId id = detail::entry_id(word);
      if (!in_pool(id) || nodes_[id].var == kFreeVar) {
        fail("op-cache entry names a free slot", slot);
      }
    }
  }
}

#ifdef LR_BDD_CHECK
void Manager::self_check(const char* after) const {
  if (swapping_) return;
  try {
    check_invariants();
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "LR_BDD_CHECK after %s: %s\n", after, e.what());
    std::abort();
  }
}
#endif

// --- Memory & structure telemetry --------------------------------------------

std::vector<std::size_t> Manager::level_histogram() const {
  std::vector<std::size_t> hist(num_vars_, 0);
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    const VarIndex var = nodes_[id].var;
    if (var == kFreeVar || var == kTerminalVar) continue;
    ++hist[level_of_var_[var]];
  }
  return hist;
}

std::size_t Manager::unique_buckets_used() const {
  std::size_t used = 0;
  for (const NodeId head : buckets_) used += head != kFalseId ? 1 : 0;
  return used;
}

std::size_t Manager::cache_entries_used() const {
  std::size_t used = 0;
  for (const CacheEntry& e : cache_) {
    used += detail::entry_op(e) != kOpNone ? 1 : 0;
  }
  return used;
}

// --- Operation cache -----------------------------------------------------------

std::size_t Manager::cache_slot(std::uint64_t hash) const noexcept {
  // Multiply-shift range reduction (Lemire 2016): the high 32 hash bits
  // scaled to [0, size). Monotone in the size, which grow_cache relies on.
  return static_cast<std::size_t>(((hash >> 32) * cache_.size()) >> 32);
}

bool Manager::cache_get(std::uint32_t op, NodeId a, NodeId b, NodeId c,
                        CacheKey& key, NodeId& out) {
  ++stats_.cache_lookups;
  key.entry = detail::pack_entry(op, a, b, c, 0);
  key.hash = hash_cache(op, a, b, c);
  CacheEntry& e = cache_[cache_slot(key.hash)];
  if (detail::same_key(e, key.entry)) {
    ++stats_.cache_hits;
    // Written only when clear, so a hot line is not dirtied on every hit.
    if ((e.a & detail::kCacheRefBit) == 0) e.a |= detail::kCacheRefBit;
    out = detail::entry_id(e.result);
    return true;
  }
  return false;
}

void Manager::cache_put(const CacheKey& key, NodeId result) {
  // The recursion since cache_get may have resized the cache, so the slot
  // is taken afresh from the hash.
  CacheEntry& e = cache_[cache_slot(key.hash)];
  CacheEntry fresh = key.entry;
  fresh.result |= result;
  // Direct-mapped: a different live key here loses its result, or, at the
  // cap, the newcomer does when the resident was hit since it was stored
  // or last spared (second chance).
  const bool evicted =
      detail::entry_op(e) != kOpNone && !detail::same_key(e, fresh);
  if (evicted && (e.a & detail::kCacheRefBit) != 0 &&
      cache_.size() == cache_cap_) {
    e.a &= ~detail::kCacheRefBit;
  } else {
    e = fresh;
  }
  if (!evicted) return;
  ++stats_.cache_evictions;
  // Grow once the evictions since the last resize reach a quarter of the
  // slots. After the entry is written, so the rehash places it too.
  if (++cache_evictions_since_resize_ >= cache_.size() / 4 &&
      cache_.size() < cache_cap_) {
    grow_cache();
  }
}

void Manager::grow_cache() {
  // Slots are monotone in the size, so an entry stays or moves up; walking
  // down, a move never lands on an entry that has yet to move. A doubling
  // sends slot i to 2i or 2i + 1, so no two entries meet; the last, shorter
  // step onto the cap can send two to one slot, and a referenced entry
  // wins it, else the one there stays. Entries move with their bits.
  const std::size_t old_size = cache_.size();
  cache_.resize(std::min(old_size * 2, cache_cap_));  // no realloc: reserved
  for (std::size_t i = old_size; i-- > 0;) {
    CacheEntry& e = cache_[i];
    const std::uint32_t op = detail::entry_op(e);
    if (op == kOpNone) continue;
    const std::size_t slot =
        cache_slot(hash_cache(op, detail::entry_id(e.a), detail::entry_id(e.b),
                              detail::entry_id(e.c)));
    assert(slot >= i);
    if (slot == i) continue;
    CacheEntry& there = cache_[slot];
    if (detail::entry_op(there) == kOpNone ||
        (e.a & ~there.a & detail::kCacheRefBit) != 0) {
      there = e;
    }
    e = CacheEntry{};
  }
  cache_evictions_since_resize_ = 0;
  ++stats_.cache_resizes;
  note_peak_bytes();
  self_check("op-cache growth");
}

}  // namespace lr::bdd
