#pragma once

#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// The baseline: cautious repair in the style of ref [2] (SYCRAFT).
///
/// Where lazy repair defers realizability to one final pass, cautious
/// repair keeps the intermediate model realizable after *every* step:
///
///  * removals are group-closed immediately — if a transition must go, its
///    whole read-restriction group goes (unless the offending member starts
///    at a state unreachable in the original program under faults: the
///    Section-IV heuristic);
///  * candidate recovery is generated group-by-group, and a group is kept
///    only if every reachable member lands inside the fault span, avoids
///    `mt`, and strictly decreases the distance-to-invariant layer;
///  * the search runs over the full state space (no
///    restrict-to-reachable pruning of the fault span), re-establishing the
///    group closures inside every iteration of the shrinking fixpoint.
///
/// The result satisfies exactly the same verifier as lazy repair; the
/// difference the benchmarks measure is the cost of carrying realizability
/// through every step instead of once at the end.
[[nodiscard]] RepairResult cautious_repair(prog::DistributedProgram& program,
                                           const Options& options = {});

/// Keeps the groups of `candidate` (for process j) all of whose *reachable*
/// members satisfy `zone` — the cautious discipline's per-step closure with
/// the Section-IV unreachable-member tolerance — and returns them closed
/// (unreachable members re-included so the result is a union of groups).
/// Journals the accepted closure and the seeds it pruned under `phase`.
///
/// The tool of ref [2] enumerated groups one at a time: pick a transition,
/// build its group, test its reachable members, accept or reject. One ∀
/// per process keeps the same groups: a group passes iff every valid
/// member lies in zone ∪ ¬reachable, and its seeds are the candidate's
/// transitions inside the zone. tests/repair/test_cautious.cpp pins this
/// form against the enumeration.
[[nodiscard]] bdd::Bdd tolerant_groups(prog::DistributedProgram& program,
                                       std::size_t j,
                                       const bdd::Bdd& candidate,
                                       const bdd::Bdd& zone,
                                       const bdd::Bdd& reachable,
                                       const char* phase,
                                       const Options& options);

}  // namespace lr::repair
