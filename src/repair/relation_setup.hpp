#pragma once

#include <iosfwd>
#include <vector>

#include "program/distributed_program.hpp"
#include "repair/cancel.hpp"
#include "symbolic/relation.hpp"

namespace lr::repair {

class Journal;

/// The disjunctive pieces of δ_P (Definition 18): one per process plus the
/// stutter completion. Their union is exactly program_delta(), which is
/// what lets the partitioned algorithms substitute the pieces for the
/// monolithic delta without changing any computed set.
[[nodiscard]] std::vector<bdd::Bdd> program_delta_pieces(
    prog::DistributedProgram& program);

/// δ_P ∪ f as a TransitionRelation: one part per process/fault action plus
/// the stutter piece.
[[nodiscard]] sym::TransitionRelation program_fault_relation(
    prog::DistributedProgram& program);

/// The fault actions as a TransitionRelation: one part per fault action
/// (a single false part when the program has none).
[[nodiscard]] sym::TransitionRelation fault_relation(
    prog::DistributedProgram& program);

/// ms of Step 1: the states of `within` from which fault steps alone can
/// reach a state of `bad_states` or take a transition of `bad_trans`.
/// Seeded with (bad_states ∪ ∃x′. f ∧ bad_trans) ∩ within, then closed
/// backward under `faults` inside `within`: Z := (Z ∪ pre(f, Z)) ∩ within.
[[nodiscard]] bdd::Bdd fault_unsafe_states(
    prog::DistributedProgram& program, const sym::TransitionRelation& faults,
    const bdd::Bdd& bad_states, const bdd::Bdd& bad_trans,
    const bdd::Bdd& within, const CancelToken* cancel);

/// The largest subset of `states` that no `rel` step leaves: states with a
/// successor outside the set are removed until none is left.
[[nodiscard]] bdd::Bdd closed_subset(const sym::TransitionRelation& rel,
                                     bdd::Bdd states);

/// The recoverable span of Step 1: the largest T ⊆ `span` from which
/// `recovery` reaches `invariant` ∩ T without leaving T, and which no step
/// of `faults` leaves. Alternates the can-recover least fixpoint with
/// closed_subset under `faults` until T stops changing.
///
/// The BFS starts from `invariant` ∩ T, so a `recovery` part whose sources
/// all lie in `invariant` adds nothing to it: leaving such parts out gives
/// the same T. A part with a source outside `invariant` must stay in.
[[nodiscard]] bdd::Bdd recoverable_span(
    const sym::TransitionRelation& recovery,
    const sym::TransitionRelation& faults, const bdd::Bdd& invariant,
    bdd::Bdd span, const CancelToken* cancel);

/// Records the program relation's partition shape: `bdd.relation.*`
/// metric gauges and, when `journal` is non-null, the journal header's
/// partition summary (parts, support widths).
void record_relation_shape(prog::DistributedProgram& program,
                           Journal* journal);

/// Renders the --stats "transition relation" section: the part count and
/// the support-width distribution that bounds what early
/// quantification can save.
void write_relation_report(prog::DistributedProgram& program,
                           std::ostream& out);

}  // namespace lr::repair
