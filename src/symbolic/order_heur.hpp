#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/order.hpp"
#include "symbolic/space.hpp"

namespace lr::sym::order {

/// Static variable-order selection (--order=MODE). The heuristics order
/// *program* variables; each variable's current/next bit interleaving is
/// preserved when the choice is expanded to a BDD-level order, because the
/// cur/next pairing dominates every other ordering concern for transition
/// relations.
enum class Mode {
  kDecl,        ///< declaration order (the engine default; the identity)
  kAuto,        ///< score every heuristic with the span-cost proxy, keep best
  kInterleave,  ///< process locality: each process's writes, then its reads
  kAdjacency,   ///< greedy placement on the weighted co-occurrence graph
};

/// Display name ("decl", "auto", "interleave", "adjacency").
[[nodiscard]] const char* mode_name(Mode mode) noexcept;

/// Parses a mode name (any of the four; the CLI accepts only decl|auto).
[[nodiscard]] std::optional<Mode> parse_mode(std::string_view name) noexcept;

/// The variable-dependence structure the heuristics consume, extracted from
/// the *parsed* model before any BDD is built (see
/// prog::DistributedProgram::order_structure). Ring/tree/star topology is
/// implicit: it is exactly the shape of these per-action support sets.
struct Structure {
  /// One entry per action (process actions, then faults, then the
  /// invariant/safety expressions): the program variables it reads or
  /// writes, sorted and deduplicated.
  std::vector<std::vector<VarId>> action_vars;
  /// One entry per process: its writes, then its reads, declaration order
  /// within each list.
  std::vector<std::vector<VarId>> process_vars;
};

/// A computed order, ready to apply and to report on.
struct Plan {
  Mode requested = Mode::kDecl;
  Mode chosen = Mode::kDecl;  ///< kAuto resolves to the winning heuristic
  std::vector<VarId> var_order;            ///< program variables, top first
  std::vector<bdd::VarIndex> var_at_level; ///< expanded bit order
  double span_cost = 0.0;       ///< static proxy of the chosen order
  double decl_span_cost = 0.0;  ///< the same proxy for declaration order
};

/// Canonical bit labels indexed by bdd::VarIndex: "x.0" for bit 0 of x's
/// current copy, "x.0'" for its next copy. The --stats order report names
/// levels by these labels.
[[nodiscard]] std::vector<std::string> bit_labels(const Space& space);

/// Static order-quality proxy: the sum over action support sets of the
/// bit-level span (max level - min level + 1) the set occupies under
/// `var_at_level`. BDD recursion depth and intermediate-node growth both
/// track how far apart interacting variables sit, so smaller is better.
[[nodiscard]] double span_cost(const Space& space, const Structure& structure,
                               std::span<const bdd::VarIndex> var_at_level);

/// Computes the order a heuristic mode chooses. kDecl returns the identity;
/// kAuto scores kDecl/kInterleave/kAdjacency and keeps the cheapest
/// (declaration order wins ties).
[[nodiscard]] Plan plan_order(const Space& space, const Structure& structure,
                              Mode mode);

/// Applies a plan to the space's manager (adjacent-exchange based; valid
/// before or after freeze). Returns the number of adjacent swaps.
std::size_t apply_plan(Space& space, const Plan& plan);

/// Predicted per-level pressure under the manager's *current* order: how
/// many action support sets span each level. The --stats order report
/// prints this against the actual live-node histogram.
[[nodiscard]] std::vector<double> predicted_level_pressure(
    Space& space, const Structure& structure);

}  // namespace lr::sym::order
