#include "repair/relation_setup.hpp"

#include <ostream>

#include "repair/journal.hpp"
#include "support/metrics.hpp"

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

sym::TransitionRelation program_fault_relation(
    prog::DistributedProgram& program) {
  sym::TransitionRelation rel(program.space());
  for (const bdd::Bdd& piece : program_delta_pieces(program)) {
    rel.add_part(piece);
  }
  for (const bdd::Bdd& fault : program.fault_action_deltas()) {
    rel.add_part(fault);
  }
  return rel;
}

sym::TransitionRelation fault_relation(prog::DistributedProgram& program) {
  sym::TransitionRelation rel(program.space());
  for (const bdd::Bdd& fault : program.fault_action_deltas()) {
    rel.add_part(fault);
  }
  if (rel.part_count() == 0) rel.add_part(program.space().bdd_false());
  return rel;
}

bdd::Bdd fault_unsafe_states(prog::DistributedProgram& program,
                             const sym::TransitionRelation& faults,
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
    const bdd::Bdd grown = (ms | space.preimage(faults, ms)) & within;
    if (grown == ms) return ms;
    ms = grown;
  }
}

bdd::Bdd closed_subset(const sym::TransitionRelation& rel, bdd::Bdd states) {
  sym::Space& space = rel.space();
  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  while (true) {
    const bdd::Bdd escaping =
        states & space.preimage(rel, valid_cur.minus(states));
    if (escaping.is_false()) return states;
    states = states.minus(escaping);
  }
}

bdd::Bdd recoverable_span(const sym::TransitionRelation& recovery,
                          const sym::TransitionRelation& faults,
                          const bdd::Bdd& invariant, bdd::Bdd span,
                          const CancelToken* cancel) {
  sym::Space& space = recovery.space();
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
    const bdd::Bdd shrunk = closed_subset(faults, can_recover);
    if (shrunk == span) return span;
    span = shrunk;
  }
}

void record_relation_shape(prog::DistributedProgram& program,
                           Journal* journal) {
  // Named, so it outlives the gauge inserts below: with the relation freed
  // first, that allocation order alone raised lr_bench's chain-tail
  // peak_rss_mb by 0.9 MB (EXPERIMENTS.md, "One relation representation").
  const sym::TransitionRelation rel = program_fault_relation(program);
  const sym::RelationShape shape = rel.shape();
  support::metrics::Registry& m = support::metrics::registry();
  m.set_gauge("bdd.relation.parts", static_cast<double>(shape.parts));
  m.set_gauge("bdd.relation.min_support_bits",
              static_cast<double>(shape.min_support_bits));
  m.set_gauge("bdd.relation.max_support_bits",
              static_cast<double>(shape.max_support_bits));
  m.set_gauge("bdd.relation.avg_support_bits", shape.avg_support_bits);
  m.set_gauge("bdd.relation.schedulable_bits",
              static_cast<double>(shape.schedulable_bits));
  m.set_gauge("bdd.relation.total_bits",
              static_cast<double>(shape.total_bits));
  if (journal != nullptr) {
    journal->meta("relation_parts", std::to_string(shape.parts));
    journal->meta("relation_max_support_bits",
                  std::to_string(shape.max_support_bits));
    journal->meta("relation_schedulable_bits",
                  std::to_string(shape.schedulable_bits));
    journal->meta("relation_total_bits",
                  std::to_string(shape.total_bits));
  }
}

void write_relation_report(prog::DistributedProgram& program,
                           std::ostream& out) {
  const sym::RelationShape shape = program_fault_relation(program).shape();
  out << "transition relation:\n";
  out << "  parts: " << shape.parts << "\n";
  out << "  support bits: min " << shape.min_support_bits << ", max "
      << shape.max_support_bits << ", avg " << shape.avg_support_bits
      << " of " << shape.total_bits << "\n";
  out << "  schedulable bits: " << shape.schedulable_bits
      << (shape.schedulable_bits == 0
              ? " (every part touches every bit)"
              : " (quantified before the product)")
      << "\n";
}

}  // namespace lr::repair
