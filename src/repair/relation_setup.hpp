#pragma once

#include <span>
#include <vector>

#include "program/distributed_program.hpp"
#include "repair/cancel.hpp"

namespace lr::repair {

/// The disjunctive pieces of δ_P (Definition 18): one per process plus the
/// stutter completion. Their union is exactly program_delta(), which is
/// what lets the partitioned algorithms substitute the pieces for the
/// monolithic delta without changing any computed set.
[[nodiscard]] std::vector<bdd::Bdd> program_delta_pieces(
    prog::DistributedProgram& program);

/// δ_P ∪ f as a list of parts: one per process and fault action plus the
/// stutter piece.
[[nodiscard]] std::vector<bdd::Bdd> program_fault_relation(
    prog::DistributedProgram& program);

/// ms of Step 1: the states of `within` from which fault steps alone can
/// reach a state of `bad_states` or take a transition of `bad_trans`.
/// Seeded with (bad_states ∪ ∃x′. f ∧ bad_trans) ∩ within, then closed
/// backward under the fault actions inside `within`:
/// Z := (Z ∪ pre(f, Z)) ∩ within.
[[nodiscard]] bdd::Bdd fault_unsafe_states(
    prog::DistributedProgram& program, const bdd::Bdd& bad_states,
    const bdd::Bdd& bad_trans, const bdd::Bdd& within,
    const CancelToken* cancel);

/// The largest subset of `states` that no step of `rel` leaves: states
/// with a successor outside the set are removed until none is left.
[[nodiscard]] bdd::Bdd closed_subset(sym::Space& space,
                                     std::span<const bdd::Bdd> rel,
                                     bdd::Bdd states);

/// The recoverable span of Step 1: the largest T ⊆ `span` from which
/// `recovery` reaches `invariant` ∩ T without leaving T, and which no
/// fault step leaves. Alternates the can-recover least fixpoint with
/// closed_subset under the fault actions until T stops changing.
///
/// The BFS starts from `invariant` ∩ T, so a `recovery` part whose sources
/// all lie in `invariant` adds nothing to it: leaving such parts out gives
/// the same T. A part with a source outside `invariant` must stay in.
[[nodiscard]] bdd::Bdd recoverable_span(
    prog::DistributedProgram& program, std::span<const bdd::Bdd> recovery,
    const bdd::Bdd& invariant, bdd::Bdd span, const CancelToken* cancel);

}  // namespace lr::repair
