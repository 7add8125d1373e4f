#pragma once

#include <span>

#include "bdd/bdd.hpp"

namespace lr::bdd::order {

/// Imposes a complete variable order on a manager: after the call,
/// var_at_level[L] == target[L] for every level L. Implemented as a
/// sequence of adjacent-level exchanges, so every existing Bdd handle keeps
/// its semantics; on an empty manager (the intended use: before any BDD is
/// built) each exchange is O(pool scan) with nothing to rewrite. `target`
/// must be a permutation of all variables; throws std::invalid_argument
/// otherwise. Returns the number of adjacent swaps performed.
std::size_t apply_order(Manager& mgr, std::span<const VarIndex> target);

/// Restores the creation order (variable v at level v). The .lr exporter
/// calls this before enumerating cubes so exported models are byte-identical
/// whatever static order preceded them.
std::size_t restore_creation_order(Manager& mgr);

}  // namespace lr::bdd::order
