#pragma once

#include <iosfwd>
#include <vector>

#include "program/distributed_program.hpp"
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

/// Records the program relation's partition shape: `bdd.relation.*`
/// metric gauges and, when `journal` is non-null, the journal header's
/// partition summary (parts, conjuncts, support widths).
void record_relation_shape(prog::DistributedProgram& program,
                           Journal* journal);

/// Renders the --stats "transition relation" section: part/conjunct counts
/// and the support-width distribution that bounds what early
/// quantification can save.
void write_relation_report(prog::DistributedProgram& program,
                           std::ostream& out);

}  // namespace lr::repair
