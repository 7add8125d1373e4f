#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>
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

inline std::size_t hash_cache(std::uint32_t op, NodeId a, NodeId b,
                              NodeId c) noexcept {
  std::uint64_t h = op;
  h = h * 0x9e3779b97f4a7c15ull + a;
  h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9ull + b;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull + c;
  return static_cast<std::size_t>(h ^ (h >> 33));
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
  // Reserve the cap once so every later doubling stays inside this one
  // allocation; only the pages actually resized into get touched.
  cache_cap_ = std::size_t{1} << options.cache_log2;
  cache_.reserve(cache_cap_);
  const std::size_t cache_size = std::min(kInitialCacheEntries, cache_cap_);
  cache_.resize(cache_size);
  cache_mask_ = cache_size - 1;
  init_pool(options.initial_capacity < 64 ? 64 : options.initial_capacity);
  note_peak_bytes();
}

Manager::~Manager() = default;

void Manager::init_pool(std::size_t capacity) {
  nodes_.reserve(capacity);
  // Terminal nodes occupy slots 0 and 1 and are never collected.
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
  nodes_.push_back(Node{});
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
  collect_garbage_impl(GcTrigger::kThreshold);
  // If the collection freed little, raise the threshold so we do not thrash.
  if (live_nodes() * 4 > gc_threshold_ * 3) gc_threshold_ *= 2;
}

void Manager::mark(NodeId root, std::vector<NodeId>& stack) {
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
    stack.push_back(n.lo);
    stack.push_back(n.hi);
  }
}

void Manager::collect_garbage() { collect_garbage_impl(GcTrigger::kExplicit); }

void Manager::collect_garbage_impl(GcTrigger trigger) {
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
  // before any freed slot can be reused and alias them.
  const auto is_live = [&live](NodeId id) {
    return ((live[id >> 6] >> (id & 63)) & 1u) != 0;
  };
  for (CacheEntry& e : cache_) {
    if (e.op == kOpNone) continue;
    const NodeId packed_cube =
        (e.op & kOpAndExists3Flag) != 0 ? e.op & ~kOpAndExists3Flag : kFalseId;
    if (!is_live(e.a) || !is_live(e.b) || !is_live(e.c) ||
        !is_live(e.result) || !is_live(packed_cube)) {
      e = CacheEntry{};
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
    record.seconds = gc_seconds;
    gc_log_.push_back(record);
  } else {
    ++gc_log_dropped_;
  }
  if (support::trace::enabled()) {
    span.attr("trigger", std::string_view(gc_trigger_name(trigger)));
    span.attr("live_before", static_cast<std::uint64_t>(live_before));
    span.attr("live_after", static_cast<std::uint64_t>(stats_.live_nodes));
  }
}

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
  for (const CacheEntry& e : cache_) used += e.op != kOpNone ? 1 : 0;
  return used;
}

// --- Operation cache -----------------------------------------------------------

bool Manager::cache_get(std::uint32_t op, NodeId a, NodeId b, NodeId c,
                        NodeId& out) {
  ++stats_.cache_lookups;
  const CacheEntry& e = cache_[hash_cache(op, a, b, c) & cache_mask_];
  if (e.op == op && e.a == a && e.b == b && e.c == c) {
    ++stats_.cache_hits;
    out = e.result;
    return true;
  }
  return false;
}

void Manager::cache_put(std::uint32_t op, NodeId a, NodeId b, NodeId c,
                        NodeId result) {
  CacheEntry& e = cache_[hash_cache(op, a, b, c) & cache_mask_];
  // Direct-mapped: a different live key dying here is an eviction.
  const bool evicted =
      e.op != kOpNone && (e.op != op || e.a != a || e.b != b || e.c != c);
  e.op = op;
  e.a = a;
  e.b = b;
  e.c = c;
  e.result = result;
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
  // Doubling adds one hash bit, so the entry in slot i belongs at i or at
  // i + old; the upper half starts empty, so the moves never collide.
  const std::size_t old_size = cache_.size();
  cache_.resize(old_size * 2);  // within the reserved capacity: no realloc
  cache_mask_ = cache_.size() - 1;
  for (std::size_t i = 0; i < old_size; ++i) {
    CacheEntry& e = cache_[i];
    if (e.op == kOpNone) continue;
    if ((hash_cache(e.op, e.a, e.b, e.c) & cache_mask_) != i) {
      cache_[i + old_size] = e;
      e = CacheEntry{};
    }
  }
  cache_evictions_since_resize_ = 0;
  ++stats_.cache_resizes;
  note_peak_bytes();
}

}  // namespace lr::bdd
