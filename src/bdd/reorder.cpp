#include <cassert>
#include <vector>

#include "bdd/bdd.hpp"

// In-place exchange of adjacent levels, the primitive behind
// bdd::order::apply_order.
//
// The engine separates variable *identity* (VarIndex, stable forever) from
// variable *position* (level). A swap exchanges adjacent levels in place: a
// node keeps its NodeId — and therefore every external Bdd handle keeps its
// semantics — while its (var, lo, hi) triple is rewritten. The classic
// invariants make this safe:
//
//  * only nodes of the upper variable x with a child labeled by the lower
//    variable y need rewriting; all other nodes are untouched;
//  * the rewritten node becomes a y-node whose children are x-nodes with
//    both cofactors below level(y), so the unique-table lookups performed
//    during the sweep can never return a node that is itself scheduled for
//    rewriting;
//  * a rewritten node can never collapse (lo == hi would imply the node
//    had no y-child in the first place).
//
// Operation-cache entries stay valid: their keys and values are node ids
// whose functions a swap preserves.

namespace lr::bdd {

std::ptrdiff_t Manager::swap_adjacent_levels(std::uint32_t level) {
  assert(level + 1 < num_vars_);
  const VarIndex x = var_at_level_[level];
  const VarIndex y = var_at_level_[level + 1];
  const std::ptrdiff_t before = static_cast<std::ptrdiff_t>(live_nodes());

  // Collect the x-nodes that interact with y before creating anything new.
  std::vector<NodeId> rewrite;
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.var != x) continue;
    if (nodes_[n.lo].var == y || nodes_[n.hi].var == y) rewrite.push_back(id);
  }

  for (const NodeId id : rewrite) {
    // Copy fields first: make_node below may reallocate the pool.
    const NodeId f0 = nodes_[id].lo;
    const NodeId f1 = nodes_[id].hi;
    const bool lo_is_y = nodes_[f0].var == y;
    const bool hi_is_y = nodes_[f1].var == y;
    const NodeId f00 = lo_is_y ? nodes_[f0].lo : f0;
    const NodeId f01 = lo_is_y ? nodes_[f0].hi : f0;
    const NodeId f10 = hi_is_y ? nodes_[f1].lo : f1;
    const NodeId f11 = hi_is_y ? nodes_[f1].hi : f1;

    const NodeId new_lo = make_node(x, f00, f10);
    const NodeId new_hi = make_node(x, f01, f11);
    assert(new_lo != new_hi && "rewritten node cannot collapse");

    unlink_node(id);
    Node& n = nodes_[id];
    n.var = y;
    n.lo = new_lo;
    n.hi = new_hi;
    relink_node(id);
  }

  std::swap(var_at_level_[level], var_at_level_[level + 1]);
  std::swap(level_of_var_[x], level_of_var_[y]);
  return static_cast<std::ptrdiff_t>(live_nodes()) - before;
}

void Manager::unlink_node(NodeId id) {
  const Node& n = nodes_[id];
  const std::size_t bucket = unique_bucket(n.var, n.lo, n.hi);
  NodeId cur = buckets_[bucket];
  if (cur == id) {
    buckets_[bucket] = n.next;
    return;
  }
  while (cur != kFalseId) {
    Node& walk = nodes_[cur];
    if (walk.next == id) {
      walk.next = n.next;
      return;
    }
    cur = walk.next;
  }
  assert(false && "unlink_node: node not found in its bucket");
}

void Manager::relink_node(NodeId id) {
  Node& n = nodes_[id];
  const std::size_t bucket = unique_bucket(n.var, n.lo, n.hi);
  n.next = buckets_[bucket];
  buckets_[bucket] = id;
}

}  // namespace lr::bdd
