#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// The interval process j's guarded commands are rendered from, in j's
/// view (readable current bits × written next bits). proj(δ_j) is ∃ over
/// the unreadable variables, then ∃ over the next copies of the variables j
/// reads but does not write, which is lossless for a realizable δ_j. With
/// no valid `restrict_to`, lower == upper == proj(δ_j). With one, the
/// j-views that have no completion in it are don't-cares: with
/// C = ∃unreadable. restrict_to, lower = proj(δ_j) ∧ C (equal to
/// proj(δ_j ∧ restrict_to), since δ_j is group-closed) and
/// upper = proj(δ_j) ∨ ¬C. Any cover between the two shows exactly δ_j on
/// every state of `restrict_to`, and what it adds starts at j-views with no
/// state there.
struct ProcessCover {
  bdd::Bdd lower;
  bdd::Bdd upper;
};
[[nodiscard]] ProcessCover process_cover(prog::DistributedProgram& program,
                                         std::size_t process_index,
                                         const bdd::Bdd& delta_j,
                                         const bdd::Bdd& restrict_to);

/// Renders a realizable process transition predicate as guarded commands.
///
/// Because δ_j satisfies the read restriction, projecting away the
/// unreadable variables loses nothing; each cube of an irredundant cover of
/// the projection (Manager::isop over process_cover's interval) then
/// corresponds to a family of transitions "if <readable values> then
/// <writes>", which is exactly the guarded-command shape a developer would
/// deploy. Don't-care variables are omitted from the guard.
///
/// `restrict_to` makes the j-views with no state in a state set (typically
/// the fault span, which no computation from S′ leaves) don't-cares, so the
/// commands are exact on that set only; pass an invalid Bdd for an exact
/// rendering of δ_j. At most `max_lines` commands are returned, followed by
/// a "..." marker when truncated.
[[nodiscard]] std::vector<std::string> describe_process_program(
    prog::DistributedProgram& program, std::size_t process_index,
    const bdd::Bdd& delta_j, const bdd::Bdd& restrict_to,
    std::size_t max_lines = 48);

/// Renders a run's Stats as "name: value" lines — the paper-table numbers
/// (step times, state counts, iteration counters) followed by the BDD
/// engine block (cache hit rate, GC runs, peak/live nodes) from
/// the ManagerStats captured at the end of the run. `repair_cli --stats`
/// prints exactly these lines.
[[nodiscard]] std::vector<std::string> describe_stats(const Stats& stats);

}  // namespace lr::repair
