#include "repair/realize.hpp"

#include <utility>

#include "repair/journal.hpp"
#include "support/trace.hpp"

namespace lr::repair {

std::vector<bdd::Bdd> realize(prog::DistributedProgram& program,
                              const bdd::Bdd& delta, const bdd::Bdd& tolerance,
                              const Options& options) {
  LR_TRACE_SPAN_NAMED(span, "realize");
  sym::Space& space = program.space();

  const bdd::Bdd valid_pair = space.valid_pair();
  // Line 1: add every transition that starts outside the fault span.
  const bdd::Bdd with_outside =
      delta | (space.valid(sym::Version::kCurrent).minus(tolerance) &
               valid_pair);
  // Self-loops are realized by stuttering, not by grouping.
  const bdd::Bdd proper = with_outside.minus(space.identity());

  std::vector<bdd::Bdd> result;
  result.reserve(program.process_count());
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    LR_TRACE_SPAN_NAMED(proc_span, "realize.process");
    proc_span.attr("process", static_cast<std::uint64_t>(j));
    throw_if_cancelled(options.cancel);
    // Line 5: drop transitions that write outside W_j. The pool lies in
    // valid_pair, so the ∀ term, which has no U_j variables, can be
    // conjoined outside group() (realize.hpp).
    const bdd::Bdd pool = proper & program.respects_write(j);
    const bdd::Bdd span_groups = program.group(j, pool & tolerance);
    bdd::Bdd accepted = span_groups & program.whole_groups_in(j, pool);
    if (options.journal != nullptr) {
      options.journal->group_accepted("repair.realize", j, accepted);
      // Everything of the pool that carried span behavior but is not in
      // the accepted closure fell to the closure test.
      options.journal->prune("repair.realize", "closure", j, pool & tolerance,
                             accepted);
    }
    if (support::trace::enabled()) {
      proc_span.attr("delta_nodes",
                     static_cast<std::uint64_t>(accepted.node_count()));
    }
    result.push_back(std::move(accepted));
  }
  return result;
}

}  // namespace lr::repair
