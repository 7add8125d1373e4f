#include "bdd/order.hpp"

#include <stdexcept>
#include <vector>

namespace lr::bdd::order {

std::size_t apply_order(Manager& mgr, std::span<const VarIndex> target) {
  const std::uint32_t n = mgr.var_count();
  if (target.size() != n) {
    throw std::invalid_argument("apply_order: order must list every variable");
  }
  std::vector<bool> seen(n, false);
  for (const VarIndex v : target) {
    if (v >= n || seen[v]) {
      throw std::invalid_argument("apply_order: order is not a permutation");
    }
    seen[v] = true;
  }

  // Selection sort by adjacent exchanges: place target[L] at level L by
  // bubbling it up from wherever it currently sits. Everything above L is
  // already in place, so the journey never disturbs placed levels.
  std::size_t swaps = 0;
  for (std::uint32_t level = 0; level < n; ++level) {
    const VarIndex v = target[level];
    for (std::uint32_t at = mgr.level_of(v); at > level; --at) {
      mgr.swap_adjacent_levels(at - 1);
      ++swaps;
    }
  }
  return swaps;
}

std::size_t restore_creation_order(Manager& mgr) {
  std::vector<VarIndex> identity(mgr.var_count());
  for (VarIndex v = 0; v < mgr.var_count(); ++v) identity[v] = v;
  return apply_order(mgr, identity);
}

}  // namespace lr::bdd::order
