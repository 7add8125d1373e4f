#pragma once

#include <vector>

#include "bdd/bdd.hpp"
#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// Step 2 of lazy repair: Algorithm 2 ("Constructing Distributed Program").
///
/// Takes the (possibly unrealizable) masking program δ' from Step 1 and its
/// fault span T', and returns per-process transition predicates δ_j that
/// satisfy both the write restriction (δ_j changes only W_j) and the read
/// restriction (δ_j is a union of complete groups).
///
/// Following the algorithm's Line 1, transitions from states the program
/// can never be in are added as don't-cares so that a group is not dropped
/// merely because some member starts there. The paper uses the complement
/// of the fault span T'; this implementation uses the complement of
/// `tolerance` — the forward reach of δ' ∪ f from S', a subset of T' that
/// over-approximates the reach of *every* realizable sub-program of δ'
/// (δ_j ⊆ δ' plus don't-cares that, inductively, are never executed). This
/// is the same justification the paper gives for its Line 1 ("the starting
/// state of that transition is never reached"), with the reachable set
/// computed exactly instead of over-approximated; it is what lets the
/// classic Byzantine-agreement solution through (see DESIGN.md).
///
/// Lines 7-22 enumerate groups one at a time: pick a transition, build
/// its group, drop it when a member is missing from the pool, and widen it
/// with ExpandGroup. Which groups that loop keeps is fixed by the initial
/// pool, so one universal quantification per process computes them. With
/// P_j the pool of process j (the don't-care-extended δ' minus self-loops,
/// restricted to the transitions that write only W_j) and U_j its
/// unreadable variables,
///
///   δ_j = group(j, P_j ∧ T') ∧ ∀U_j,U_j'. (same(U_j) ∧ valid_pair ⇒ P_j).
///
/// The ∀ term has no U_j variables left, so it commutes with the ∃ inside
/// group(): when P_j ⊆ valid_pair (Line 1 conjoins valid_pair, and Step 1
/// builds δ' inside it), this equals group(j, realizable_subset(j, P_j) ∧ T'),
/// the groups of span behavior wholly inside the pool (DESIGN.md §6 item 9).
/// tests/support/group_loops.hpp keeps the paper's loop as the test oracle.
///
/// The returned δ_j contain exactly the accepted groups that carry some
/// behavior inside `tolerance` (groups entirely outside it are don't-cares
/// and are omitted from the output program; no computation from S' can
/// tell the difference).
///
/// Self-loops in δ' (original stutter steps inside S') are not subject to
/// grouping — Definition 18's stuttering realizes them — and are therefore
/// ignored here; Algorithm 1 accounts for them when checking deadlocks.
[[nodiscard]] std::vector<bdd::Bdd> realize(prog::DistributedProgram& program,
                                            const bdd::Bdd& delta,
                                            const bdd::Bdd& tolerance,
                                            const Options& options,
                                            Stats& stats);

}  // namespace lr::repair
