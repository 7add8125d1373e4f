#pragma once

// The first round of lazy repair up to livelock elimination, replayed for
// the tests of the local livelock proof (find_livelock_certificate) and the
// verifier's certificate check: Step 1, the tolerance reach and Algorithm 2, exactly as
// lazy_repair runs them. Also the global νZs the two stand in for.

#include <vector>

#include "bdd/bdd.hpp"
#include "program/distributed_program.hpp"
#include "repair/add_masking.hpp"
#include "repair/realize.hpp"
#include "symbolic/space.hpp"

namespace lr::testgen {

struct RealizedRound {
  bool ok = false;                ///< Step 1 succeeded
  std::vector<bdd::Bdd> deltas;   ///< realize()'s δ_j, before pruning
  bdd::Bdd invariant;             ///< Step 1's S'
  bdd::Bdd tolerance;             ///< the reach of Step 1's δ' ∪ f from S'
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
  const bdd::Bdd tolerance = space.forward_reachable(parts, step1.invariant);
  out.ok = true;
  out.deltas = repair::realize(program, step1.delta, tolerance, options);
  out.invariant = step1.invariant;
  out.tolerance = tolerance;
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
    const bdd::Bdd shrunk = space.has_successor_in({&actions, 1}, z);
    if (shrunk == z) return z;
    z = shrunk;
  }
}

/// The verifier's O for `deltas` with invariant `invariant`: the states
/// reachable from it under ∪ deltas and the faults, minus the invariant.
inline bdd::Bdd verifier_outside(prog::DistributedProgram& program,
                                 const std::vector<bdd::Bdd>& deltas,
                                 const bdd::Bdd& invariant) {
  std::vector<bdd::Bdd> parts = deltas;
  for (const bdd::Bdd& f : program.fault_action_deltas()) parts.push_back(f);
  return program.space().forward_reachable(parts, invariant).minus(invariant);
}

/// The verifier's νZ: the states of `outside` that start an infinite run
/// of the stutter-completed ∪ deltas inside `outside`.
inline bdd::Bdd stuttering_livelock_states(prog::DistributedProgram& program,
                                           const std::vector<bdd::Bdd>& deltas,
                                           const bdd::Bdd& outside) {
  sym::Space& space = program.space();
  bdd::Bdd actions = space.bdd_false();
  for (const bdd::Bdd& dj : deltas) actions |= dj;
  const bdd::Bdd delta = program.stutter_completion(actions);
  bdd::Bdd z = outside;
  while (true) {
    const bdd::Bdd shrunk = space.has_successor_in({&delta, 1}, z);
    if (shrunk == z) return z;
    z = shrunk;
  }
}

}  // namespace lr::testgen
