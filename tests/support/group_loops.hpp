#pragma once

// Test-only references for the group closures that Step 2 and cautious
// repair compute with one universal quantification per process: the
// one-group-at-a-time loops of the paper's Algorithm 2 (lines 1-22, with
// ExpandGroup) and of the cautious tool of ref [2]. The tests pin the ∀
// forms against these loops.

#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "program/distributed_program.hpp"

namespace lr::testgen {

/// Algorithm 2 as printed, one group per iteration.
struct GroupLoopResult {
  std::vector<bdd::Bdd> deltas;     ///< accepted groups per process
  std::size_t iterations = 0;       ///< groups picked (lines 8-9)
  std::size_t rejections = 0;       ///< groups not wholly in the pool
  std::size_t expand_successes = 0;
  std::size_t expand_failures = 0;
};

/// Lines 1-22 of Algorithm 2: Line 1 adds every transition that starts
/// outside `tolerance`, Line 5 keeps the transitions that respect W_j,
/// then the loop picks a transition inside `tolerance`, builds its group,
/// drops the group when some member is missing from the pool, and
/// otherwise widens it along each readable-but-unwritten variable whose
/// widening stays in the pool (ExpandGroup, lines 13-18, when `expand`).
/// A widening ranges over the variable's valid values only: out-of-domain
/// encodings of a non-power-of-two domain are never in the pool.
/// Expects every pool to lie in valid_pair, the premise that lets
/// `realize` conjoin its ∀ term outside group().
inline GroupLoopResult realize_group_loop(prog::DistributedProgram& program,
                                          const bdd::Bdd& delta,
                                          const bdd::Bdd& tolerance,
                                          bool expand) {
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  const bdd::Bdd valid_pair = space.valid_pair();
  const bdd::Bdd with_outside =
      delta | (space.valid(sym::Version::kCurrent).minus(tolerance) &
               valid_pair);
  const bdd::Bdd proper = with_outside.minus(space.identity());
  const bdd::Bdd all_bits =
      space.cube(sym::Version::kCurrent) & space.cube(sym::Version::kNext);
  GroupLoopResult out;
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const prog::Process& proc = program.process(j);
    const std::unordered_set<sym::VarId> writes(proc.writes.begin(),
                                                proc.writes.end());
    std::vector<std::pair<bdd::Bdd, bdd::Bdd>> widenings;  // (cube, unchanged)
    for (const sym::VarId v : proc.reads) {
      if (!expand || writes.count(v) != 0) continue;
      const sym::VarId vs[1] = {v};
      widenings.emplace_back(space.cube_pair_of(vs),
                             space.unchanged(v) & valid_pair);
    }
    bdd::Bdd pool = proper & program.respects_write(j);
    EXPECT_TRUE(pool.leq(valid_pair)) << "process " << j;
    bdd::Bdd worklist = pool & tolerance;
    bdd::Bdd accepted = space.bdd_false();
    while (!worklist.is_false()) {
      ++out.iterations;
      bdd::Bdd group = program.group(j, mgr.pick_minterm(worklist, all_bits));
      if (group.leq(pool)) {
        for (const auto& [cube_v, unchanged_v] : widenings) {
          const bdd::Bdd widened = mgr.exists(group, cube_v) & unchanged_v;
          if (widened.leq(pool)) {
            group = widened;
            ++out.expand_successes;
          } else {
            ++out.expand_failures;
          }
        }
        accepted |= group;
      } else {
        ++out.rejections;
      }
      pool = pool.minus(group);
      worklist = worklist.minus(group);
    }
    out.deltas.push_back(std::move(accepted));
  }
  return out;
}

/// The cautious tool's closure for process j, one group per iteration:
/// pick a transition of candidate ∧ zone, build its group, and accept the
/// group iff every member that `reachable` admits lies in `zone`.
inline bdd::Bdd tolerant_group_loop(prog::DistributedProgram& program,
                                    std::size_t j, const bdd::Bdd& candidate,
                                    const bdd::Bdd& zone,
                                    const bdd::Bdd& reachable) {
  sym::Space& space = program.space();
  const bdd::Bdd all_bits =
      space.cube(sym::Version::kCurrent) & space.cube(sym::Version::kNext);
  bdd::Bdd pool = candidate & zone;
  bdd::Bdd accepted = space.bdd_false();
  while (!pool.is_false()) {
    const bdd::Bdd group =
        program.group(j, space.manager().pick_minterm(pool, all_bits));
    if ((group & reachable).leq(zone)) accepted |= group;
    pool = pool.minus(group);
  }
  return accepted;
}

}  // namespace lr::testgen
