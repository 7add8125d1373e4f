#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "bdd/profile.hpp"

namespace lr::bdd {

namespace {

using profile::OpClass;
using profile::ScopedOp;
/// Checks that both operands live in `mgr` (cheap sanity net in debug).
inline void check_same_manager(const Manager* mgr, const Bdd& a,
                               const Bdd& b) {
  (void)mgr;
  (void)a;
  (void)b;
  assert(a.manager() == mgr && b.manager() == mgr);
}
}  // namespace

// --- Binary boolean operations ---------------------------------------------------

Bdd Manager::apply_and(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f, g);
  ScopedOp profiled(*this, OpClass::kApply);
  maybe_gc();
  return wrap(and_rec(f.id(), g.id()));
}

Bdd Manager::apply_or(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f, g);
  ScopedOp profiled(*this, OpClass::kApply);
  maybe_gc();
  return wrap(or_rec(f.id(), g.id()));
}

Bdd Manager::apply_xor(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f, g);
  ScopedOp profiled(*this, OpClass::kApply);
  maybe_gc();
  return wrap(xor_rec(f.id(), g.id()));
}

Bdd Manager::apply_diff(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f, g);
  ScopedOp profiled(*this, OpClass::kApply);
  maybe_gc();
  return wrap(diff_rec(f.id(), g.id()));
}

Bdd Manager::apply_not(const Bdd& f) {
  assert(f.manager() == this);
  ScopedOp profiled(*this, OpClass::kApply);
  maybe_gc();
  return wrap(not_rec(f.id()));
}

Bdd Manager::apply_ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  check_same_manager(this, f, g);
  assert(h.manager() == this);
  ScopedOp profiled(*this, OpClass::kIte);
  maybe_gc();
  return wrap(ite_rec(f.id(), g.id(), h.id()));
}

NodeId Manager::and_rec(NodeId f, NodeId g) {
  if (f == kFalseId || g == kFalseId) return kFalseId;
  if (f == kTrueId) return g;
  if (g == kTrueId || f == g) return f;
  if (f > g) std::swap(f, g);
  CacheKey key;
  NodeId out;
  if (cache_get(kOpAnd, f, g, 0, key, out)) return out;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const VarIndex top = std::min(nf.var, ng.var);
  const NodeId flo = nf.var == top ? nf.lo : f;
  const NodeId fhi = nf.var == top ? nf.hi : f;
  const NodeId glo = ng.var == top ? ng.lo : g;
  const NodeId ghi = ng.var == top ? ng.hi : g;
  const NodeId lo = and_rec(flo, glo);
  const NodeId hi = and_rec(fhi, ghi);
  const NodeId r = make_node(top, lo, hi);
  cache_put(key, r);
  return r;
}

NodeId Manager::or_rec(NodeId f, NodeId g) {
  if (f == kTrueId || g == kTrueId) return kTrueId;
  if (f == kFalseId) return g;
  if (g == kFalseId || f == g) return f;
  if (f > g) std::swap(f, g);
  CacheKey key;
  NodeId out;
  if (cache_get(kOpOr, f, g, 0, key, out)) return out;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const VarIndex top = std::min(nf.var, ng.var);
  const NodeId flo = nf.var == top ? nf.lo : f;
  const NodeId fhi = nf.var == top ? nf.hi : f;
  const NodeId glo = ng.var == top ? ng.lo : g;
  const NodeId ghi = ng.var == top ? ng.hi : g;
  const NodeId lo = or_rec(flo, glo);
  const NodeId hi = or_rec(fhi, ghi);
  const NodeId r = make_node(top, lo, hi);
  cache_put(key, r);
  return r;
}

NodeId Manager::xor_rec(NodeId f, NodeId g) {
  if (f == g) return kFalseId;
  if (f == kFalseId) return g;
  if (g == kFalseId) return f;
  if (f == kTrueId) return not_rec(g);
  if (g == kTrueId) return not_rec(f);
  if (f > g) std::swap(f, g);
  CacheKey key;
  NodeId out;
  if (cache_get(kOpXor, f, g, 0, key, out)) return out;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const VarIndex top = std::min(nf.var, ng.var);
  const NodeId flo = nf.var == top ? nf.lo : f;
  const NodeId fhi = nf.var == top ? nf.hi : f;
  const NodeId glo = ng.var == top ? ng.lo : g;
  const NodeId ghi = ng.var == top ? ng.hi : g;
  const NodeId lo = xor_rec(flo, glo);
  const NodeId hi = xor_rec(fhi, ghi);
  const NodeId r = make_node(top, lo, hi);
  cache_put(key, r);
  return r;
}

NodeId Manager::diff_rec(NodeId f, NodeId g) {
  if (f == kFalseId || g == kTrueId || f == g) return kFalseId;
  if (g == kFalseId) return f;
  if (f == kTrueId) return not_rec(g);
  CacheKey key;
  NodeId out;
  if (cache_get(kOpDiff, f, g, 0, key, out)) return out;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const VarIndex top = std::min(nf.var, ng.var);
  const NodeId flo = nf.var == top ? nf.lo : f;
  const NodeId fhi = nf.var == top ? nf.hi : f;
  const NodeId glo = ng.var == top ? ng.lo : g;
  const NodeId ghi = ng.var == top ? ng.hi : g;
  const NodeId lo = diff_rec(flo, glo);
  const NodeId hi = diff_rec(fhi, ghi);
  const NodeId r = make_node(top, lo, hi);
  cache_put(key, r);
  return r;
}

NodeId Manager::not_rec(NodeId f) {
  if (f == kFalseId) return kTrueId;
  if (f == kTrueId) return kFalseId;
  CacheKey key;
  NodeId out;
  if (cache_get(kOpNot, f, 0, 0, key, out)) return out;
  const Node nf = nodes_[f];
  const NodeId r = make_node(nf.var, not_rec(nf.lo), not_rec(nf.hi));
  cache_put(key, r);
  return r;
}

NodeId Manager::ite_rec(NodeId f, NodeId g, NodeId h) {
  if (f == kTrueId) return g;
  if (f == kFalseId) return h;
  if (g == h) return g;
  if (g == kTrueId && h == kFalseId) return f;
  if (g == kFalseId && h == kTrueId) return not_rec(f);
  if (f == g) return or_rec(f, h);        // ite(f, f, h) = f ∨ h
  if (f == h) return and_rec(f, g);       // ite(f, g, f) = f ∧ g
  if (g == kFalseId) return diff_rec(h, f);
  if (h == kFalseId) return and_rec(f, g);
  if (h == kTrueId) return or_rec(not_rec(f), g);
  CacheKey key;
  NodeId out;
  if (cache_get(kOpIte, f, g, h, key, out)) return out;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const Node nh = nodes_[h];
  const VarIndex top = std::min({nf.var, ng.var, nh.var});
  const NodeId flo = nf.var == top ? nf.lo : f;
  const NodeId fhi = nf.var == top ? nf.hi : f;
  const NodeId glo = ng.var == top ? ng.lo : g;
  const NodeId ghi = ng.var == top ? ng.hi : g;
  const NodeId hlo = nh.var == top ? nh.lo : h;
  const NodeId hhi = nh.var == top ? nh.hi : h;
  const NodeId lo = ite_rec(flo, glo, hlo);
  const NodeId hi = ite_rec(fhi, ghi, hhi);
  const NodeId r = make_node(top, lo, hi);
  cache_put(key, r);
  return r;
}

// --- Decision procedures (no result BDD built) -----------------------------------

bool Manager::leq(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f, g);
  ScopedOp profiled(*this, OpClass::kDecide);
  return leq_rec(f.id(), g.id());
}

bool Manager::leq_rec(NodeId f, NodeId g) {
  if (f == kFalseId || g == kTrueId || f == g) return true;
  if (g == kFalseId) return false;  // f != 0 here
  if (f == kTrueId) return false;   // g != 1 here
  CacheKey key;
  NodeId out;
  if (cache_get(kOpLeq, f, g, 0, key, out)) return out == kTrueId;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const VarIndex top = std::min(nf.var, ng.var);
  const NodeId flo = nf.var == top ? nf.lo : f;
  const NodeId fhi = nf.var == top ? nf.hi : f;
  const NodeId glo = ng.var == top ? ng.lo : g;
  const NodeId ghi = ng.var == top ? ng.hi : g;
  const bool r = leq_rec(flo, glo) && leq_rec(fhi, ghi);
  cache_put(key, r ? kTrueId : kFalseId);
  return r;
}

bool Manager::disjoint(const Bdd& f, const Bdd& g) {
  check_same_manager(this, f, g);
  ScopedOp profiled(*this, OpClass::kDecide);
  return disjoint_rec(f.id(), g.id());
}

bool Manager::disjoint_rec(NodeId f, NodeId g) {
  if (f == kFalseId || g == kFalseId) return true;
  if (f == kTrueId) return g == kFalseId;
  if (g == kTrueId) return false;  // f != 0 here
  if (f == g) return false;
  if (f > g) std::swap(f, g);
  CacheKey key;
  NodeId out;
  if (cache_get(kOpDisjoint, f, g, 0, key, out)) return out == kTrueId;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const VarIndex top = std::min(nf.var, ng.var);
  const NodeId flo = nf.var == top ? nf.lo : f;
  const NodeId fhi = nf.var == top ? nf.hi : f;
  const NodeId glo = ng.var == top ? ng.lo : g;
  const NodeId ghi = ng.var == top ? ng.hi : g;
  const bool r = disjoint_rec(flo, glo) && disjoint_rec(fhi, ghi);
  cache_put(key, r ? kTrueId : kFalseId);
  return r;
}

// --- Quantification ----------------------------------------------------------------

Bdd Manager::exists(const Bdd& f, const Bdd& cube) {
  check_same_manager(this, f, cube);
  ScopedOp profiled(*this, OpClass::kQuantify);
  maybe_gc();
  return wrap(exists_rec(f.id(), cube.id()));
}

Bdd Manager::forall(const Bdd& f, const Bdd& cube) {
  check_same_manager(this, f, cube);
  ScopedOp profiled(*this, OpClass::kQuantify);
  maybe_gc();
  return wrap(forall_rec(f.id(), cube.id()));
}

Bdd Manager::and_exists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  check_same_manager(this, f, g);
  assert(cube.manager() == this);
  ScopedOp profiled(*this, OpClass::kQuantify);
  maybe_gc();
  return wrap(and_exists_rec(f.id(), g.id(), cube.id()));
}

NodeId Manager::exists_rec(NodeId f, NodeId cube) {
  if (f <= kTrueId) return f;
  // Skip quantified variables above f's top variable; they are not in f's
  // support, so quantifying them is the identity.
  while (cube != kTrueId && nodes_[cube].var < nodes_[f].var) {
    cube = nodes_[cube].hi;
  }
  if (cube == kTrueId) return f;
  CacheKey key;
  NodeId out;
  if (cache_get(kOpExists, f, cube, 0, key, out)) return out;
  const Node nf = nodes_[f];
  NodeId r;
  if (nodes_[cube].var == nf.var) {
    const NodeId rest = nodes_[cube].hi;
    const NodeId lo = exists_rec(nf.lo, rest);
    r = (lo == kTrueId) ? kTrueId : or_rec(lo, exists_rec(nf.hi, rest));
  } else {
    r = make_node(nf.var, exists_rec(nf.lo, cube), exists_rec(nf.hi, cube));
  }
  cache_put(key, r);
  return r;
}

NodeId Manager::forall_rec(NodeId f, NodeId cube) {
  if (f <= kTrueId) return f;
  while (cube != kTrueId && nodes_[cube].var < nodes_[f].var) {
    cube = nodes_[cube].hi;
  }
  if (cube == kTrueId) return f;
  CacheKey key;
  NodeId out;
  if (cache_get(kOpForall, f, cube, 0, key, out)) return out;
  const Node nf = nodes_[f];
  NodeId r;
  if (nodes_[cube].var == nf.var) {
    const NodeId rest = nodes_[cube].hi;
    const NodeId lo = forall_rec(nf.lo, rest);
    r = (lo == kFalseId) ? kFalseId : and_rec(lo, forall_rec(nf.hi, rest));
  } else {
    r = make_node(nf.var, forall_rec(nf.lo, cube), forall_rec(nf.hi, cube));
  }
  cache_put(key, r);
  return r;
}

NodeId Manager::and_exists_rec(NodeId f, NodeId g, NodeId cube) {
  if (f == kFalseId || g == kFalseId) return kFalseId;
  if (f == kTrueId && g == kTrueId) return kTrueId;
  if (f > g) std::swap(f, g);  // AND is commutative
  const VarIndex top = std::min(nodes_[f].var, nodes_[g].var);
  while (cube != kTrueId && nodes_[cube].var < top) {
    cube = nodes_[cube].hi;
  }
  if (cube == kTrueId) return and_rec(f, g);
  CacheKey key;
  NodeId out;
  if (cache_get(kOpAndExists, f, g, cube, key, out)) return out;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const NodeId flo = nf.var == top ? nf.lo : f;
  const NodeId fhi = nf.var == top ? nf.hi : f;
  const NodeId glo = ng.var == top ? ng.lo : g;
  const NodeId ghi = ng.var == top ? ng.hi : g;
  NodeId r;
  if (nodes_[cube].var == top) {
    const NodeId rest = nodes_[cube].hi;
    const NodeId lo = and_exists_rec(flo, glo, rest);
    r = (lo == kTrueId) ? kTrueId
                        : or_rec(lo, and_exists_rec(fhi, ghi, rest));
  } else {
    r = make_node(top, and_exists_rec(flo, glo, cube),
                  and_exists_rec(fhi, ghi, cube));
  }
  cache_put(key, r);
  return r;
}

// --- Permutation ---------------------------------------------------------------------

PermId Manager::register_permutation(std::span<const VarIndex> perm) {
  if (perm.size() != num_vars_) {
    throw std::invalid_argument(
        "register_permutation: permutation size must equal variable count");
  }
  if (kOpPermBase + permutations_.size() >= kOpLimit) {
    throw std::length_error("register_permutation: no op codes left");
  }
#ifndef NDEBUG
  std::vector<bool> seen(num_vars_, false);
  for (const VarIndex v : perm) {
    assert(v < num_vars_ && !seen[v] && "permutation must be a bijection");
    seen[v] = true;
  }
#endif
  permutations_.emplace_back(perm.begin(), perm.end());
  return static_cast<PermId>(permutations_.size() - 1);
}

Bdd Manager::permute(const Bdd& f, PermId perm) {
  assert(f.manager() == this && perm < permutations_.size());
  ScopedOp profiled(*this, OpClass::kPermute);
  maybe_gc();
  return wrap(permute_rec(f.id(), perm));
}

NodeId Manager::permute_rec(NodeId f, PermId perm) {
  if (f <= kTrueId) return f;
  const std::uint32_t op = kOpPermBase + perm;
  CacheKey key;
  NodeId out;
  if (cache_get(op, f, 0, 0, key, out)) return out;
  const Node nf = nodes_[f];
  const NodeId lo = permute_rec(nf.lo, perm);
  const NodeId hi = permute_rec(nf.hi, perm);
  const VarIndex nv = permutations_[perm][nf.var];
  // The renamed variable may be out of order w.r.t. the already-permuted
  // cofactors, so rebuild with ITE rather than make_node.
  const NodeId vnode = make_node(nv, kFalseId, kTrueId);
  const NodeId r = ite_rec(vnode, hi, lo);
  cache_put(key, r);
  return r;
}

// --- Cofactor -------------------------------------------------------------------------

Bdd Manager::cofactor(const Bdd& f, VarIndex v, bool value) {
  assert(f.manager() == this && v < num_vars_);
  ScopedOp profiled(*this, OpClass::kQuantify);
  maybe_gc();
  const Bdd lit = value ? bdd_var(v) : bdd_nvar(v);
  const VarIndex vars[1] = {v};
  const Bdd cube = make_cube(vars);
  return wrap(and_exists_rec(f.id(), lit.id(), cube.id()));
}

// --- Counting / solutions ----------------------------------------------------------------

double Manager::sat_count(const Bdd& f, std::uint32_t nvars) {
  assert(f.manager() == this);
  // frac(f) = fraction of all assignments (over the full variable universe)
  // that satisfy f; independent of which variables actually occur.
  std::unordered_map<NodeId, double> memo;
  memo.reserve(256);
  std::function<double(NodeId)> frac = [&](NodeId id) -> double {
    if (id == kFalseId) return 0.0;
    if (id == kTrueId) return 1.0;
    const auto it = memo.find(id);
    if (it != memo.end()) return it->second;
    const Node& n = nodes_[id];
    const double r = 0.5 * (frac(n.lo) + frac(n.hi));
    memo.emplace(id, r);
    return r;
  };
  return frac(f.id()) * std::pow(2.0, static_cast<double>(nvars));
}

Bdd Manager::pick_minterm(const Bdd& f, const Bdd& cube) {
  check_same_manager(this, f, cube);
  if (f.is_false()) {
    throw std::invalid_argument("pick_minterm: function is unsatisfiable");
  }
  maybe_gc();
  return wrap(pick_rec(f.id(), cube.id()));
}

NodeId Manager::pick_rec(NodeId f, NodeId cube) {
  assert(f != kFalseId);
  if (cube == kTrueId) {
    // All of f's support must be covered by the cube.
    assert(f == kTrueId && "pick_minterm: cube must contain support(f)");
    return kTrueId;
  }
  const Node nc = nodes_[cube];
  const VarIndex v = nc.var;
  if (f == kTrueId || nodes_[f].var > v) {
    // f does not constrain v: fix v = 0 for determinism.
    const NodeId rest = pick_rec(f, nc.hi);
    return make_node(v, rest, kFalseId);
  }
  assert(nodes_[f].var == v && "pick_minterm: cube must contain support(f)");
  const Node nf = nodes_[f];
  if (nf.lo != kFalseId) {
    const NodeId rest = pick_rec(nf.lo, nc.hi);
    return make_node(v, rest, kFalseId);
  }
  const NodeId rest = pick_rec(nf.hi, nc.hi);
  return make_node(v, kFalseId, rest);
}

void Manager::foreach_minterm(
    const Bdd& f, const Bdd& cube,
    const std::function<void(std::span<const bool>)>& fn) {
  check_same_manager(this, f, cube);
  // Collect the cube variables in order.
  std::vector<VarIndex> vars;
  for (NodeId c = cube.id(); c != kTrueId; c = nodes_[c].hi) {
    vars.push_back(nodes_[c].var);
  }
  // A plain bool buffer (std::vector<bool> has no contiguous storage).
  const std::unique_ptr<bool[]> values(new bool[vars.size()]());
  // Recursive enumeration: at depth d we branch on vars[d].
  std::function<void(NodeId, std::size_t)> walk = [&](NodeId g,
                                                      std::size_t d) {
    if (g == kFalseId) return;
    if (d == vars.size()) {
      assert(g == kTrueId && "foreach_minterm: cube must contain support(f)");
      fn(std::span<const bool>(values.get(), vars.size()));
      return;
    }
    const VarIndex v = vars[d];
    NodeId glo = g;
    NodeId ghi = g;
    if (g > kTrueId && nodes_[g].var == v) {
      glo = nodes_[g].lo;
      ghi = nodes_[g].hi;
    } else {
      assert(g == kTrueId || nodes_[g].var > v);
    }
    values[d] = false;
    walk(glo, d + 1);
    values[d] = true;
    walk(ghi, d + 1);
  };
  walk(f.id(), 0);
}

IsopCover Manager::isop(const Bdd& lower, const Bdd& upper) {
  check_same_manager(this, lower, upper);
  ScopedOp profiled(*this, OpClass::kApply);
  maybe_gc();
  IsopCover cover;
  cover.num_vars_ = num_vars_;
  // (lower, upper) -> the cover's function and its DAG entry.
  struct Isop {
    NodeId f;
    std::uint32_t cover;
  };
  std::unordered_map<std::uint64_t, Isop> memo;
  const auto isop = [&](const auto& self, NodeId l, NodeId u) -> Isop {
    if (l == kFalseId) return {kFalseId, IsopCover::kNoCubes};
    if (u == kTrueId) return {kTrueId, IsopCover::kEmptyCube};
    if (u == kFalseId) {
      throw std::invalid_argument("isop: lower does not imply upper");
    }
    const std::uint64_t key = std::uint64_t{l} << 32 | u;
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    const Node nl = nodes_[l];
    const Node nu = nodes_[u];
    const VarIndex top = std::min(nl.var, nu.var);
    const NodeId l0 = nl.var == top ? nl.lo : l;
    const NodeId l1 = nl.var == top ? nl.hi : l;
    const NodeId u0 = nu.var == top ? nu.lo : u;
    const NodeId u1 = nu.var == top ? nu.hi : u;
    // Minterms that only a cube with the literal can cover, then what the
    // two sides left for cubes without it.
    const Isop r0 = self(self, diff_rec(l0, u1), u0);
    const Isop r1 = self(self, diff_rec(l1, u0), u1);
    const Isop rd = self(self, or_rec(diff_rec(l0, r0.f), diff_rec(l1, r1.f)),
                         and_rec(u0, u1));
    Isop r{make_node(top, or_rec(r0.f, rd.f), or_rec(r1.f, rd.f)), rd.cover};
    if (r0.cover != IsopCover::kNoCubes || r1.cover != IsopCover::kNoCubes) {
      cover.nodes_.push_back({top, r0.cover, r1.cover, rd.cover});
      r.cover = static_cast<std::uint32_t>(cover.nodes_.size() - 1);
    }
    memo.emplace(key, r);
    return r;
  };
  cover.root_ = isop(isop, lower.id(), upper.id()).cover;
  return cover;
}

void IsopCover::foreach_cube(
    const std::function<void(std::span<const signed char>)>& fn) const {
  std::vector<signed char> values(num_vars_, -1);
  const auto walk = [&](const auto& self, std::uint32_t c) -> void {
    if (c == kNoCubes) return;
    if (c == kEmptyCube) {
      fn(std::span<const signed char>(values.data(), values.size()));
      return;
    }
    const Node n = nodes_[c];
    values[n.var] = 0;
    self(self, n.lo);
    values[n.var] = 1;
    self(self, n.hi);
    values[n.var] = -1;
    self(self, n.dc);
  };
  walk(walk, root_);
}

bool Manager::eval(const Bdd& f, std::span<const bool> assignment) const {
  assert(f.manager() == this);
  NodeId cur = f.id();
  while (cur > kTrueId) {
    const Node& n = nodes_[cur];
    const bool value =
        n.var < assignment.size() ? assignment[n.var] : false;
    cur = value ? n.hi : n.lo;
  }
  return cur == kTrueId;
}

Bdd Manager::support_cube(const Bdd& f) {
  const std::vector<VarIndex> vars = support(f);
  return make_cube(vars);
}

std::vector<VarIndex> Manager::support(const Bdd& f) {
  assert(f.manager() == this);
  std::vector<bool> in_support(num_vars_, false);
  std::unordered_set<NodeId> visited;
  std::vector<NodeId> stack{f.id()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id <= kTrueId || !visited.insert(id).second) continue;
    const Node& n = nodes_[id];
    in_support[n.var] = true;
    stack.push_back(n.lo);
    stack.push_back(n.hi);
  }
  std::vector<VarIndex> result;
  for (VarIndex v = 0; v < num_vars_; ++v) {
    if (in_support[v]) result.push_back(v);
  }
  return result;
}

std::size_t Manager::node_count(const Bdd& f) {
  assert(f.manager() == this);
  std::unordered_set<NodeId> visited;
  std::vector<NodeId> stack{f.id()};
  std::size_t internal = 0;
  bool saw_false = false;
  bool saw_true = false;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id == kFalseId) {
      saw_false = true;
      continue;
    }
    if (id == kTrueId) {
      saw_true = true;
      continue;
    }
    if (!visited.insert(id).second) continue;
    ++internal;
    stack.push_back(nodes_[id].lo);
    stack.push_back(nodes_[id].hi);
  }
  return internal + (saw_false ? 1 : 0) + (saw_true ? 1 : 0);
}

std::string Manager::to_dot(const Bdd& f, const std::string& name) {
  std::string out = "digraph \"" + name + "\" {\n";
  out += "  node [shape=circle];\n";
  out += "  f0 [shape=box,label=\"0\"]; f1 [shape=box,label=\"1\"];\n";
  std::unordered_set<NodeId> visited;
  std::vector<NodeId> stack{f.id()};
  auto node_name = [](NodeId id) {
    if (id == kFalseId) return std::string("f0");
    if (id == kTrueId) return std::string("f1");
    return "n" + std::to_string(id);
  };
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (id <= kTrueId || !visited.insert(id).second) continue;
    const Node& n = nodes_[id];
    out += "  " + node_name(id) + " [label=\"x" + std::to_string(n.var) +
           "\"];\n";
    out += "  " + node_name(id) + " -> " + node_name(n.lo) +
           " [style=dashed];\n";
    out += "  " + node_name(id) + " -> " + node_name(n.hi) + ";\n";
    stack.push_back(n.lo);
    stack.push_back(n.hi);
  }
  out += "}\n";
  return out;
}

}  // namespace lr::bdd
