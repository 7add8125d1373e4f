#include "repair/realize.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "repair/journal.hpp"
#include "support/progress.hpp"
#include "support/trace.hpp"

namespace lr::repair {

namespace {

/// ExpandGroup's loop invariants for process j: (cube_pair_of({v}),
/// unchanged(v) ∧ valid_pair) for every v in R_j − W_j, in reads order.
/// The validity conjunct keeps a widening inside the valid encodings of a
/// non-power-of-two domain, whose out-of-domain variants are never in the
/// pool (DESIGN.md §6 item 6).
std::vector<std::pair<bdd::Bdd, bdd::Bdd>> expand_inputs(
    prog::DistributedProgram& program, std::size_t j) {
  sym::Space& space = program.space();
  const prog::Process& proc = program.process(j);
  const std::unordered_set<sym::VarId> writes(proc.writes.begin(),
                                              proc.writes.end());
  const bdd::Bdd valid_pair = space.valid_pair();
  std::vector<std::pair<bdd::Bdd, bdd::Bdd>> expand;
  for (const sym::VarId v : proc.reads) {
    if (writes.count(v) != 0) continue;
    const sym::VarId vs[1] = {v};
    expand.emplace_back(space.cube_pair_of(vs),
                        space.unchanged(v) & valid_pair);
  }
  return expand;
}

}  // namespace

std::vector<bdd::Bdd> realize(prog::DistributedProgram& program,
                              const bdd::Bdd& delta, const bdd::Bdd& tolerance,
                              const Options& options, Stats& stats) {
  LR_TRACE_SPAN_NAMED(span, "realize");
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();

  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  const bdd::Bdd valid_pair = space.valid_pair();
  const bdd::Bdd identity = space.identity();

  // Line 1: add every transition that starts outside the fault span.
  const bdd::Bdd with_outside =
      delta | (valid_cur.minus(tolerance) & valid_pair);
  // Self-loops are realized by stuttering, not by grouping.
  const bdd::Bdd proper = with_outside.minus(identity);

  const bdd::Bdd all_bits_cube =
      space.cube(sym::Version::kCurrent) & space.cube(sym::Version::kNext);

  std::vector<bdd::Bdd> result;
  result.reserve(program.process_count());

  for (std::size_t j = 0; j < program.process_count(); ++j) {
    LR_TRACE_SPAN_NAMED(proc_span, "realize.process");
    proc_span.attr("process", static_cast<std::uint64_t>(j));
    // Line 5: drop transitions that write outside W_j.
    bdd::Bdd delta_j_pool = proper & program.respects_write(j);
    bdd::Bdd accepted = space.bdd_false();

    throw_if_cancelled(options.cancel);
    if (options.group_method == GroupMethod::kOneShot) {
      // Equivalent one-pass formulation: keep exactly the transitions whose
      // whole group is present, then restrict to groups that carry span
      // behavior.
      const bdd::Bdd closed = program.realizable_subset(j, delta_j_pool);
      accepted = program.group(j, closed & tolerance);
      if (options.journal != nullptr) {
        options.journal->group_accepted("repair.realize", j, accepted);
        // Everything of the pool that carried span behavior but is not in
        // the accepted closure fell to the closure test.
        options.journal->prune("repair.realize", "closure", j,
                               delta_j_pool & tolerance, accepted);
      }
    } else {
      // Lines 7-22 of Algorithm 2. The worklist is restricted to
      // transitions that start inside the span: groups made purely of
      // Line-1 don't-cares carry no behavior and need not be enumerated.
      const std::vector<std::pair<bdd::Bdd, bdd::Bdd>> expand =
          options.use_expand_group
              ? expand_inputs(program, j)
              : std::vector<std::pair<bdd::Bdd, bdd::Bdd>>{};

      bdd::Bdd worklist = delta_j_pool & tolerance;
      support::progress::Heartbeat heartbeat("realize.groups");
      while (!worklist.is_false()) {
        throw_if_cancelled(options.cancel);
        ++stats.group_iterations;
        support::trace::counter("repair.groups_processed",
                                static_cast<double>(stats.group_iterations));
        if (heartbeat.due()) {
          heartbeat.emit("process " + std::to_string(j) + ", " +
                         std::to_string(stats.group_iterations) +
                         " groups, live nodes " +
                         std::to_string(mgr.live_nodes()));
        }
        // Line 8: choose one transition.
        const bdd::Bdd chosen = mgr.pick_minterm(worklist, all_bits_cube);
        // Line 9: its group.
        bdd::Bdd group = program.group(j, chosen);
        if (!group.leq(delta_j_pool)) {
          // Line 11, batched: some member is missing, so the group goes,
          // and so does every other group not wholly in the pool. The pool
          // only ever loses whole groups, so which groups the loop would
          // reject one at a time is fixed by the initial pool; dropping
          // them all now (one ∀) leaves the accepted groups, their order
          // and every ExpandGroup decision unchanged (DESIGN.md §6.9), and
          // no later iteration can reject.
          const bdd::Bdd closed =
              program.realizable_subset(j, delta_j_pool);
          if (options.journal != nullptr) {
            options.journal->group_rejected("repair.realize", j, "closure",
                                            group, group, delta_j_pool);
            options.journal->prune("repair.realize", "closure", j,
                                   delta_j_pool, closed);
          }
          delta_j_pool = closed;
          worklist &= closed;
          // Closed form: the pool is now group-closed, and so is the set
          // `widenable` of its transitions whose v-variants all lie in it
          // for some expandable v. Every widened set the loop can still
          // accept lies in `widenable`, so a group outside it is never
          // widened nor covered, and the loop would accept it as it is.
          // Accepting all of them now changes no later `leq(pool)` test
          // (DESIGN.md §6.9); the loop goes on over `widenable` alone.
          bdd::Bdd widenable = space.bdd_false();
          for (const auto& [cube_v, unchanged_v] : expand) {
            widenable |=
                mgr.forall(unchanged_v.implies(delta_j_pool), cube_v);
          }
          widenable &= delta_j_pool;
          const bdd::Bdd bulk = program.group(j, worklist.minus(widenable));
          if (!bulk.is_false()) {
            if (options.journal != nullptr) {
              options.journal->group_accepted("repair.realize", j, bulk);
            }
            accepted |= bulk;
            delta_j_pool = delta_j_pool.minus(bulk);
            worklist &= widenable;
          }
          continue;
        }
        // Lines 13-18: try to widen the group by dropping readable
        // variables from the implicit guard (`expand` is empty when
        // ExpandGroup is off).
        for (const auto& [cube_v, unchanged_v] : expand) {
          const bdd::Bdd widened = mgr.exists(group, cube_v) & unchanged_v;
          if (widened.leq(delta_j_pool)) {
            group = widened;
            ++stats.expand_successes;
          } else {
            ++stats.expand_failures;
          }
        }
        // Lines 19-20.
        if (options.journal != nullptr) {
          options.journal->group_accepted("repair.realize", j, group);
        }
        accepted |= group;
        delta_j_pool = delta_j_pool.minus(group);
        worklist = worklist.minus(group);
      }
    }
    if (support::trace::enabled()) {
      proc_span.attr("delta_nodes",
                     static_cast<std::uint64_t>(accepted.node_count()));
    }
    result.push_back(std::move(accepted));
  }
  stats.peak_bdd_nodes =
      std::max(stats.peak_bdd_nodes, mgr.stats().peak_nodes);
  if (support::trace::enabled()) {
    span.attr("group_iterations",
              static_cast<std::uint64_t>(stats.group_iterations));
    span.attr("expand_accepts",
              static_cast<std::uint64_t>(stats.expand_successes));
    span.attr("expand_rejects",
              static_cast<std::uint64_t>(stats.expand_failures));
  }
  return result;
}

}  // namespace lr::repair
