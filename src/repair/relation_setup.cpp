#include "repair/relation_setup.hpp"

namespace lr::repair {

std::vector<bdd::Bdd> program_delta_pieces(
    prog::DistributedProgram& program) {
  std::vector<bdd::Bdd> pieces;
  pieces.reserve(program.process_count() + 1);
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    pieces.push_back(program.process_delta(j));
  }
  const bdd::Bdd stutter =
      program.program_delta().minus(program.actions_delta());
  if (!stutter.is_false()) pieces.push_back(stutter);
  return pieces;
}

std::vector<bdd::Bdd> program_fault_relation(
    prog::DistributedProgram& program) {
  std::vector<bdd::Bdd> rel = program_delta_pieces(program);
  const std::vector<bdd::Bdd>& faults = program.fault_action_deltas();
  rel.insert(rel.end(), faults.begin(), faults.end());
  return rel;
}

bdd::Bdd fault_unsafe_states(prog::DistributedProgram& program,
                             const bdd::Bdd& bad_states,
                             const bdd::Bdd& bad_trans,
                             const bdd::Bdd& within,
                             const CancelToken* cancel) {
  sym::Space& space = program.space();
  bdd::Bdd ms = (bad_states |
                 space.manager().exists(program.fault_delta() & bad_trans,
                                        space.cube(sym::Version::kNext))) &
                within;
  while (true) {
    throw_if_cancelled(cancel);
    const bdd::Bdd grown =
        (ms | space.preimage(program.fault_action_deltas(), ms)) & within;
    if (grown == ms) return ms;
    ms = grown;
  }
}

bdd::Bdd closed_subset(sym::Space& space, std::span<const bdd::Bdd> rel,
                       bdd::Bdd states) {
  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  while (true) {
    const bdd::Bdd escaping =
        states & space.preimage(rel, valid_cur.minus(states));
    if (escaping.is_false()) return states;
    states = states.minus(escaping);
  }
}

bdd::Bdd recoverable_span(prog::DistributedProgram& program,
                          std::span<const bdd::Bdd> recovery,
                          const bdd::Bdd& invariant, bdd::Bdd span,
                          const CancelToken* cancel) {
  sym::Space& space = program.space();
  while (true) {
    throw_if_cancelled(cancel);
    // Drop the states that cannot reach the invariant inside the span...
    bdd::Bdd can_recover = invariant & span;
    while (true) {
      const bdd::Bdd grown =
          can_recover | (span & space.preimage(recovery, can_recover));
      if (grown == can_recover) break;
      can_recover = grown;
    }
    // ...and those from which faults escape it.
    const bdd::Bdd shrunk =
        closed_subset(space, program.fault_action_deltas(), can_recover);
    if (shrunk == span) return span;
    span = shrunk;
  }
}

}  // namespace lr::repair
