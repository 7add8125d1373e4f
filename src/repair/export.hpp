#pragma once

#include <string>

#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// Renders a repair result as a complete model in the textual `.lr`
/// format: the original variables, faults and safety specification, the
/// repair's invariant S′ in place of the declared one, and each process's
/// actions replaced by the *synthesized* realizable guarded commands: one
/// command per cube of an irredundant cover of process j's view of δ_j
/// (Manager::isop over process_cover's interval). The cover is exact on the
/// fault span T′; the j-views with no state in T′ are don't-cares, so the
/// commands may add transitions there, and only there. T′ is closed under
/// the program and the faults, so no computation from S′ reaches those
/// states, and verify_tolerant_model, which derives S′ back from the
/// exported invariant, never visits them. S′ is written as the
/// disjunction of its own irredundant cover's cubes.
///
/// The output parses back through lang::parse_program and — being already
/// masking fault-tolerant — re-repairs to itself (the round-trip is
/// regression-tested). Partial-value cubes are rendered with disjunctive
/// guards and nondeterministic `{...}` choices over the values in the
/// variables' domains.
///
/// The covers are computed once; the text is rendered in two walks over
/// them: the first only measures it, the second writes it into a string
/// reserved to exactly that size, so the export is never held twice.
/// Throws std::logic_error if the two walks disagree on the length.
[[nodiscard]] std::string export_model(prog::DistributedProgram& program,
                                       const RepairResult& result);

/// export_model()'s text streamed to `path` atomically (write-temp-then-
/// rename, see support::write_file_atomic): the text is never held in
/// memory, and a crash mid-export leaves either the old file or the new
/// one, never a torn model. Returns false on IO failure.
[[nodiscard]] bool export_model_file(prog::DistributedProgram& program,
                                     const RepairResult& result,
                                     const std::string& path);

}  // namespace lr::repair
