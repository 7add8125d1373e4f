#pragma once

// The first round of lazy repair up to livelock elimination, replayed for
// the tests of the layered livelock proof: Step 1, the tolerance reach and
// Algorithm 2, exactly as lazy_repair runs them. Also the global νZ the
// proof stands in for.

#include <vector>

#include "bdd/bdd.hpp"
#include "program/distributed_program.hpp"
#include "repair/add_masking.hpp"
#include "repair/realize.hpp"
#include "symbolic/relation.hpp"

namespace lr::testgen {

struct RealizedRound {
  bool ok = false;                ///< Step 1 succeeded
  std::vector<bdd::Bdd> deltas;   ///< realize()'s δ_j, before pruning
  bdd::Bdd outside;               ///< tolerance − S', the νZ's start
};

inline RealizedRound realize_first_round(prog::DistributedProgram& program,
                                         const repair::Options& options = {}) {
  sym::Space& space = program.space();
  repair::Stats stats;
  RealizedRound out;
  const repair::StepOneResult step1 =
      repair::add_masking(program, program.invariant(), space.bdd_false(),
                          bdd::Bdd(), options, stats);
  if (!step1.success) return out;
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : program.fault_action_deltas()) parts.push_back(f);
  const bdd::Bdd tolerance = space.forward_reachable(
      sym::TransitionRelation::partitioned(space, parts), step1.invariant);
  out.ok = true;
  out.deltas = repair::realize(program, step1.delta, tolerance, options, stats);
  out.outside = tolerance.minus(step1.invariant);
  return out;
}

/// The states of `outside` that start an infinite run of ∪ deltas inside
/// `outside`: the global νZ.
inline bdd::Bdd livelock_states(sym::Space& space,
                                const std::vector<bdd::Bdd>& deltas,
                                const bdd::Bdd& outside) {
  bdd::Bdd actions = space.bdd_false();
  for (const bdd::Bdd& dj : deltas) actions |= dj;
  bdd::Bdd z = outside;
  while (true) {
    const bdd::Bdd shrunk = space.has_successor_in_local(actions, z);
    if (shrunk == z) return z;
    z = shrunk;
  }
}

}  // namespace lr::testgen
