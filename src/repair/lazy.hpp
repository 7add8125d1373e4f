#pragma once

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

}  // namespace lr::repair
