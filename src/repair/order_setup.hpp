#pragma once

#include <iosfwd>
#include <string>

#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// Applies Options::order_mode to the program's space. Called by
/// lazy_repair/cautious_repair before anything compiles, so the chosen
/// order really is the *initial* order every BDD is built under.
/// Idempotent — the CLI may have applied the same plan already for its
/// report. A no-op for kDecl, which keeps default runs byte-identical to
/// the pre-order engine. Records `bdd.order.*` metrics for non-default
/// modes.
void apply_order_options(prog::DistributedProgram& program,
                         const Options& options);

/// Renders the --stats "bdd order" section: the chosen mode, its span-cost
/// proxy vs declaration order, and the predicted-pressure vs actual
/// live-node histogram for the heaviest levels.
void write_order_report(prog::DistributedProgram& program,
                        const Options& options, std::ostream& out,
                        std::size_t max_levels = 10);

}  // namespace lr::repair
