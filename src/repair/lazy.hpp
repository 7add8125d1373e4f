#pragma once

#include <span>

#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// Algorithm 1: adds masking fault-tolerance to a distributed program via
/// lazy repair (the paper's contribution).
///
///   repeat
///     (δ', S', T') := Add-Masking(...)          — Step 1, no realizability
///     {δ_j}       := Algorithm 2(δ', T')        — Step 2, enforce groups
///     DL := states of T' with no outgoing realized transition
///     ban transitions into DL and retry
///   until DL = ∅
///
/// In addition to banning transitions into DL (the paper's Line 11), DL
/// states are removed from the candidate invariant of the next round; this
/// guarantees the loop makes progress even when a deadlocked state lies
/// inside S' itself (see DESIGN.md).
[[nodiscard]] RepairResult lazy_repair(prog::DistributedProgram& program,
                                       const Options& options = {});

/// Proves, without a global fixpoint, that the realized program `deltas`
/// (one δ_j per process) has no infinite run inside `outside`. True means
/// proved; false means unknown, and the caller must run the global νZ.
///
/// Let V_j = reads_j ∪ writes_j and add an edge k → j when P_k writes a
/// variable of V_j. When this graph is acyclic and no δ_j, projected onto
/// V_j, cycles inside the projection of `outside`, no run can stay in
/// `outside` forever (convergence stairs; DESIGN.md has the proof). The
/// graph costs no BDD work, so a cyclic graph returns false for free.
///
/// Precondition: each δ_j changes only writes_j, which realize() ensures.
[[nodiscard]] bool livelock_free_by_layers(prog::DistributedProgram& program,
                                           const bdd::Bdd& outside,
                                           std::span<const bdd::Bdd> deltas);

}  // namespace lr::repair
