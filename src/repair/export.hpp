#pragma once

#include <string>

#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// Renders a repair result as a complete model in the textual `.lr`
/// format: the original variables, faults, invariant and safety
/// specification, with each process's actions replaced by the
/// *synthesized* realizable guarded commands (restricted to the fault
/// span; unreachable don't-cares are dropped).
///
/// The output parses back through lang::parse_program and — being already
/// masking fault-tolerant — re-repairs to itself (the round-trip is
/// regression-tested). Partial-value cubes are rendered with disjunctive
/// guards and nondeterministic `{...}` choices, so the export is exact.
///
/// The text is rendered in two walks over the projected process programs:
/// the first only measures it, the second writes it into a string reserved
/// to exactly that size, so the export is never held twice. Throws
/// std::logic_error if the two walks disagree on the length.
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
