#include "repair/realize.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "repair/journal.hpp"
#include "support/progress.hpp"
#include "support/trace.hpp"
#include "symbolic/intra.hpp"

namespace lr::repair {

namespace {

/// A journal event decided on a worker thread, buffered as worker-manager
/// handles and replayed on the main thread in canonical process order so
/// the journal stream is byte-identical to the sequential run's.
struct PendingEvent {
  enum Kind { kAccepted, kRejected, kPrune } kind = kAccepted;
  const char* reason = nullptr;
  bdd::Bdd a;  ///< accepted: group; rejected: group; prune: pre
  bdd::Bdd b;  ///< rejected: pre pool; prune: post
  bdd::Bdd c;  ///< rejected: acceptable pool
};

/// Everything one process's enumeration produced on its worker.
struct ProcessOutcome {
  bdd::Bdd accepted;  // worker-manager handle
  std::vector<PendingEvent> events;
  std::size_t iterations = 0;
  std::size_t expand_successes = 0;
  std::size_t expand_failures = 0;
};

/// Per-process inputs pinned on the main manager for worker import.
struct ProcessInputs {
  bdd::NodeId respects_write = 0;
  bdd::NodeId same_unreadable = 0;
  bdd::NodeId unreadable_cube = 0;
  /// (cube_pair_of({v}), unchanged(v)) per expandable variable, in the
  /// sequential path's iteration order (R_j − W_j, reads order).
  std::vector<std::pair<bdd::NodeId, bdd::NodeId>> expand;
};

/// ExpandGroup's loop invariants for process j: (cube_pair_of({v}),
/// unchanged(v)) for every v in R_j − W_j, in reads order.
std::vector<std::pair<bdd::Bdd, bdd::Bdd>> expand_inputs(
    prog::DistributedProgram& program, std::size_t j) {
  sym::Space& space = program.space();
  const prog::Process& proc = program.process(j);
  const std::unordered_set<sym::VarId> writes(proc.writes.begin(),
                                              proc.writes.end());
  std::vector<std::pair<bdd::Bdd, bdd::Bdd>> expand;
  for (const sym::VarId v : proc.reads) {
    if (writes.count(v) != 0) continue;
    const sym::VarId vs[1] = {v};
    expand.emplace_back(space.cube_pair_of(vs), space.unchanged(v));
  }
  return expand;
}

/// Parallel per-process group enumeration: processes are independent in
/// Algorithm 2 (each only consumes its own pool δ ∩ respects_write(j)), so
/// worker w replicates the exact sequential loop for processes
/// {w, w+J, ...} on its own manager. The worker's manager mirrors the main
/// variable order, so pick_minterm/leq decide identically (canonicity) and
/// accept/reject decisions match the sequential run one-for-one; results
/// and journal events commit in ascending process order afterwards.
std::vector<bdd::Bdd> realize_parallel(
    prog::DistributedProgram& program, const bdd::Bdd& proper,
    const bdd::Bdd& tolerance, const Options& options, Stats& stats,
    sym::IntraEngine& engine) {
  sym::Space& space = program.space();
  const std::size_t n = program.process_count();
  const bool journaling = options.journal != nullptr;

  const bdd::NodeId proper_id = engine.pin(proper);
  const bdd::NodeId tolerance_id = engine.pin(tolerance);
  const bdd::NodeId valid_pair_id = engine.pin(space.valid_pair());
  std::vector<ProcessInputs> inputs(n);
  for (std::size_t j = 0; j < n; ++j) {
    inputs[j].respects_write = engine.pin(program.respects_write(j));
    inputs[j].same_unreadable = engine.pin(program.same_unreadable(j));
    inputs[j].unreadable_cube = engine.pin(program.unreadable_cube(j));
    if (options.group_method == GroupMethod::kPaperLoop &&
        options.use_expand_group) {
      for (const auto& [cube_v, unchanged_v] : expand_inputs(program, j)) {
        inputs[j].expand.emplace_back(engine.pin(cube_v),
                                      engine.pin(unchanged_v));
      }
    }
  }

  std::vector<ProcessOutcome> outcomes(n);
  engine.run([&](std::size_t w, sym::IntraEngine::Worker& worker) {
    bdd::Manager& m = worker.mgr;
    const bdd::Bdd w_proper = engine.import(w, proper_id);
    const bdd::Bdd w_tol = engine.import(w, tolerance_id);
    const bdd::Bdd w_valid_pair = engine.import(w, valid_pair_id);
    const bdd::Bdd all_bits = worker.cube_cur & worker.cube_next;
    for (std::size_t j = w; j < n; j += engine.contexts()) {
      ProcessOutcome& out = outcomes[j];
      const bdd::Bdd w_same = engine.import(w, inputs[j].same_unreadable);
      const bdd::Bdd w_ucube = engine.import(w, inputs[j].unreadable_cube);
      // program.group / program.realizable_subset, replicated over the
      // worker's manager (see prog::DistributedProgram).
      const auto group_of = [&](const bdd::Bdd& delta) {
        return m.exists(delta & w_same, w_ucube) & w_same & w_valid_pair;
      };
      const auto realizable_subset = [&](const bdd::Bdd& delta) {
        const bdd::Bdd member_shape = w_same & w_valid_pair;
        return delta & member_shape &
               m.forall(member_shape.implies(delta), w_ucube);
      };
      bdd::Bdd pool =
          w_proper & engine.import(w, inputs[j].respects_write);
      bdd::Bdd accepted = m.bdd_false();
      throw_if_cancelled(options.cancel);
      if (options.group_method == GroupMethod::kOneShot) {
        const bdd::Bdd closed = realizable_subset(pool);
        accepted = group_of(closed & w_tol);
        if (journaling) {
          out.events.push_back({PendingEvent::kAccepted, nullptr, accepted,
                                bdd::Bdd(), bdd::Bdd()});
          out.events.push_back({PendingEvent::kPrune, "closure",
                                pool & w_tol, accepted, bdd::Bdd()});
        }
      } else {
        std::vector<std::pair<bdd::Bdd, bdd::Bdd>> expand;
        expand.reserve(inputs[j].expand.size());
        for (const auto& [cube_id, unchanged_id] : inputs[j].expand) {
          expand.emplace_back(engine.import(w, cube_id),
                              engine.import(w, unchanged_id));
        }
        bdd::Bdd worklist = pool & w_tol;
        while (!worklist.is_false()) {
          throw_if_cancelled(options.cancel);
          ++out.iterations;
          const bdd::Bdd chosen = m.pick_minterm(worklist, all_bits);
          bdd::Bdd group = group_of(chosen);
          if (!group.leq(pool)) {
            // Batched rejection, exactly as in the sequential loop.
            const bdd::Bdd closed = realizable_subset(pool);
            if (journaling) {
              out.events.push_back(
                  {PendingEvent::kRejected, "closure", group, group, pool});
              out.events.push_back(
                  {PendingEvent::kPrune, "closure", pool, closed, bdd::Bdd()});
            }
            pool = closed;
            worklist &= closed;
            continue;
          }
          if (options.use_expand_group) {
            for (const auto& [cube_v, unchanged_v] : expand) {
              const bdd::Bdd widened = m.exists(group, cube_v) & unchanged_v;
              if (widened.leq(pool)) {
                group = widened;
                ++out.expand_successes;
              } else {
                ++out.expand_failures;
              }
            }
          }
          if (journaling) {
            out.events.push_back({PendingEvent::kAccepted, nullptr, group,
                                  bdd::Bdd(), bdd::Bdd()});
          }
          accepted |= group;
          pool = pool.minus(group);
          worklist = worklist.minus(group);
        }
      }
      out.accepted = std::move(accepted);
    }
  });

  // Commit in canonical (ascending process) order: stats, journal events,
  // then the per-process delta — exactly the sequential emission order.
  std::vector<bdd::Bdd> result;
  result.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t w = j % engine.contexts();
    ProcessOutcome& out = outcomes[j];
    stats.group_iterations += out.iterations;
    stats.expand_successes += out.expand_successes;
    stats.expand_failures += out.expand_failures;
    if (journaling) {
      for (const PendingEvent& event : out.events) {
        switch (event.kind) {
          case PendingEvent::kAccepted:
            options.journal->group_accepted(
                "repair.realize", j, engine.export_to_main(w, event.a));
            break;
          case PendingEvent::kRejected:
            options.journal->group_rejected(
                "repair.realize", j, event.reason,
                engine.export_to_main(w, event.a),
                engine.export_to_main(w, event.b),
                engine.export_to_main(w, event.c));
            break;
          case PendingEvent::kPrune:
            options.journal->prune("repair.realize", event.reason, j,
                                   engine.export_to_main(w, event.a),
                                   engine.export_to_main(w, event.b));
            break;
        }
      }
    }
    result.push_back(out.accepted.valid()
                         ? engine.export_to_main(w, out.accepted)
                         : space.bdd_false());
    if (out.iterations > 0) {
      support::trace::counter("repair.groups_processed",
                              static_cast<double>(stats.group_iterations));
    }
  }
  return result;
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

  if (sym::IntraEngine* engine = space.intra();
      engine != nullptr && program.process_count() > 1) {
    std::vector<bdd::Bdd> result =
        realize_parallel(program, proper, tolerance, options, stats, *engine);
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
