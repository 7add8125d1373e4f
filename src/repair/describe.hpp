#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// Process j's view of a transition predicate `shown` (a subset of δ_j):
/// ∃ over the unreadable variables, then ∃ over the next copies of the
/// variables j reads but does not write. The result is over readable
/// current values and written next values only, which is lossless for a
/// realizable δ_j. describe_process_program and export_model render it.
[[nodiscard]] bdd::Bdd project_process_view(prog::DistributedProgram& program,
                                            std::size_t process_index,
                                            const bdd::Bdd& shown);

/// Renders a realizable process transition predicate as guarded commands.
///
/// Because δ_j satisfies the read restriction, projecting away the
/// unreadable variables loses nothing; each BDD cube of the projection then
/// corresponds to a family of transitions "if <readable values> then
/// <writes>", which is exactly the guarded-command shape a developer would
/// deploy. Don't-care variables are omitted from the guard.
///
/// `restrict_to` limits the rendering to transitions starting in a state
/// set (typically the fault span — the rest are unreachable don't-cares);
/// pass an invalid Bdd for no restriction. At most `max_lines` commands are
/// returned, followed by a "..." marker when truncated.
[[nodiscard]] std::vector<std::string> describe_process_program(
    prog::DistributedProgram& program, std::size_t process_index,
    const bdd::Bdd& delta_j, const bdd::Bdd& restrict_to,
    std::size_t max_lines = 48);

/// Renders a run's Stats as "name: value" lines — the paper-table numbers
/// (step times, state counts, iteration counters) followed by the BDD
/// engine block (cache hit rate, GC runs, peak/live nodes, reorders) from
/// the ManagerStats captured at the end of the run. `repair_cli --stats`
/// prints exactly these lines.
[[nodiscard]] std::vector<std::string> describe_stats(const Stats& stats);

}  // namespace lr::repair
