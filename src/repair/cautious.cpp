#include "repair/cautious.hpp"

#include <algorithm>

#include "repair/journal.hpp"
#include "repair/relation_setup.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/progress.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace lr::repair {

bdd::Bdd tolerant_groups(prog::DistributedProgram& program, std::size_t j,
                         const bdd::Bdd& candidate, const bdd::Bdd& zone,
                         const bdd::Bdd& reachable, const char* phase,
                         const Options& options) {
  const bdd::Bdd closed = program.whole_groups_in(j, zone | ~reachable);
  const bdd::Bdd seeds = candidate & zone & closed;
  const bdd::Bdd accepted = program.group(j, seeds);
  if (options.journal != nullptr) {
    options.journal->group_accepted(phase, j, accepted);
    // Seeds that fell to the closure test (some reachable member of
    // their group leaves the zone).
    options.journal->prune(phase, "safety", j, candidate & zone, accepted);
  }
  return accepted;
}

RepairResult cautious_repair(prog::DistributedProgram& program,
                             const Options& options) {
  LR_TRACE_SPAN_NAMED(run_span, "cautious_repair");
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  support::Stopwatch total;

  RepairResult result;
  const auto finish = [&result, &mgr, &total] {
    result.stats.total_seconds = total.seconds();
    result.stats.bdd = mgr.stats();
    result.stats.peak_bdd_nodes =
        std::max(result.stats.peak_bdd_nodes, result.stats.bdd.peak_nodes);
  };
  if (options.journal != nullptr) {
    options.journal->begin_run(program, "cautious",
                               tolerance_level_name(options.level));
  }

  // Partition-shape record (metrics, journal header).
  record_relation_shape(program, options.journal);
  const sym::TransitionRelation faults_rel = fault_relation(program);

  const std::size_t nproc = program.process_count();
  const bdd::Bdd delta_p = program.program_delta();
  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  const bdd::Bdd valid_pair = space.valid_pair();
  const bdd::Bdd identity = space.identity();
  const bdd::Bdd bad_states = program.safety().bad_states;
  // The original stutter steps (legitimate terminal states).
  const bdd::Bdd orig_diag = delta_p & identity;

  // Reachability of the fault-intolerant program under faults: used only by
  // the Section-IV heuristic, as in [2] — the repair itself explores the
  // full state space.
  // `reach_ref` is the reachability reference of the Section-IV tolerance.
  // It starts as the fault-intolerant program's reachable set and is
  // refined to the candidate program's own reachable set whenever that is
  // smaller — the cautious analogue of SYCRAFT's deferred decisions, and
  // necessary for non-degenerate solutions (see DESIGN.md).
  bdd::Bdd reach_ref = program.reachable_under_faults();
  result.stats.reachable_states = space.count_states(reach_ref);

  // ms / mt over the full state space.
  const bdd::Bdd ms =
      fault_unsafe_states(program, faults_rel, bad_states,
                          program.safety().bad_trans, space.bdd_true(),
                          options.cancel.get());
  bdd::Bdd mt = (program.safety().bad_trans | space.prime(ms)) & valid_pair;

  bdd::Bdd s1 = program.invariant().minus(ms);
  bdd::Bdd t1 = valid_cur.minus(ms);
  std::size_t refinements = 0;

  support::progress::Heartbeat heartbeat("cautious_repair");
  for (std::size_t round = 0; round < options.max_outer_iterations; ++round) {
    throw_if_cancelled(options.cancel);
    ++result.stats.outer_iterations;
    if (options.journal != nullptr) options.journal->round_start(round);
    LR_TRACE_SPAN_NAMED(round_span, "cautious_repair.round");
    round_span.attr("round", static_cast<std::uint64_t>(round));
    support::trace::counter("repair.deadlock_round",
                            static_cast<double>(round));
    if (heartbeat.due()) {
      heartbeat.emit("round " + std::to_string(round) + ", refinements " +
                     std::to_string(refinements) + ", live nodes " +
                     std::to_string(mgr.live_nodes()));
    }
    LR_LOG(debug) << "[cautious] round=" << round
                  << " s1=" << space.count_states(s1)
                  << " t1=" << space.count_states(t1)
                  << " refs=" << refinements;
    if (s1.is_false()) {
      result.failure_reason = "invariant became empty";
      if (options.journal != nullptr) {
        options.journal->run_end(false, result.failure_reason);
      }
      finish();
      return result;
    }

    // --- Group-closed invariant behavior per process ----------------------------
    LR_TRACE_SPAN_NAMED(groups_span, "cautious_repair.groups");
    const bdd::Bdd inv_zone = s1 & space.prime(s1) & ~mt;
    std::vector<bdd::Bdd> inv_j(nproc);
    for (std::size_t j = 0; j < nproc; ++j) {
      inv_j[j] = tolerant_groups(program, j, program.process_delta(j),
                                 inv_zone & program.process_delta(j),
                                 reach_ref, "analysis.invariant", options);
    }
    // Keep original stutter loops inside the invariant.
    const bdd::Bdd inv_stutter = orig_diag & s1 & space.prime(s1);

    // --- Group-closed candidate recovery per process -----------------------------
    // Targets are kept inside the original reachable set (plus S1) so the
    // unreachable-member tolerance above stays sound.
    const bdd::Bdd rec_targets = s1 | (reach_ref & t1);
    const bdd::Bdd rec_zone = t1.minus(s1) & space.prime(rec_targets) &
                              valid_pair & ~mt & ~identity;
    std::vector<bdd::Bdd> rec_j(nproc);
    bdd::Bdd rec_all = space.bdd_false();
    for (std::size_t j = 0; j < nproc; ++j) {
      const bdd::Bdd cand = rec_zone & program.respects_write(j);
      rec_j[j] = tolerant_groups(program, j, cand, cand, reach_ref,
                                 "analysis.recovery", options);
      rec_all |= rec_j[j];
    }

    groups_span.close();

    // --- Shrink (S1, T1) with the grouped transition sets -------------------------
    ++result.stats.addmasking_rounds;
    LR_TRACE_SPAN_NAMED(shrink_span, "cautious_repair.shrink");
    // P1 as a relation: the per-process grouped sets stay disjunctive
    // parts (their supports are what early quantification schedules
    // around).
    sym::TransitionRelation p1_rel(space);
    for (const bdd::Bdd& part : inv_j) {
      if (!part.is_false()) p1_rel.add_part(part);
    }
    if (!inv_stutter.is_false()) p1_rel.add_part(inv_stutter);
    for (const bdd::Bdd& part : rec_j) {
      if (!part.is_false()) p1_rel.add_part(part);
    }
    // All of P1, unlike add_masking's rec_part-only span: tolerant_groups
    // re-includes a group's unreachable members outside the zone, so an
    // inv_j part can have sources outside S1 and add states to the
    // can-recover BFS.
    const bdd::Bdd t2 = recoverable_span(p1_rel, faults_rel, s1, t1,
                                         options.cancel.get());
    bdd::Bdd s2 = s1 & t2;
    {
      // Invariant closure: the νZ iterate stays inside S2, so a step that
      // ends in it already ends in S2 and needs no S2′ conjunct.
      sym::TransitionRelation closure_rel(space);
      for (const bdd::Bdd& part : inv_j) {
        if (!part.is_false()) closure_rel.add_part(part);
      }
      if (!inv_stutter.is_false()) closure_rel.add_part(inv_stutter);
      s2 = space.live_core(closure_rel, s2);
    }
    if (options.journal != nullptr) {
      options.journal->fixpoint_round("cautious.shrink",
                                      result.stats.addmasking_rounds,
                                      space.count_states(s2),
                                      space.count_states(t2));
    }
    if (s2 != s1 || t2 != t1) {
      LR_LOG(debug) << "[cautious]   shrink path";
      s1 = s2;
      t1 = t2;
      continue;  // groups must be re-derived for the shrunk pair
    }
    shrink_span.close();

    // --- Layered, group-closed recovery selection ----------------------------------
    LR_TRACE_SPAN_NAMED(layers_span, "cautious_repair.layers");
    bdd::Bdd below = s1;
    bdd::Bdd layer_decreasing = space.bdd_false();
    bdd::Bdd remaining = t1.minus(s1);
    sym::TransitionRelation rec_rel(space);
    for (const bdd::Bdd& part : rec_j) {
      if (!part.is_false()) rec_rel.add_part(part);
    }
    result.stats.recovery_layers = 0;
    while (!remaining.is_false()) {
      const bdd::Bdd layer = space.preimage(rec_rel, below) & remaining;
      if (layer.is_false()) break;  // leftovers are handled by the DL check
      layer_decreasing |= layer & space.prime(below);
      below |= layer;
      remaining = remaining.minus(layer);
      ++result.stats.recovery_layers;
      if (options.journal != nullptr) {
        options.journal->recovery_layer(result.stats.recovery_layers,
                                        space.count_states(layer),
                                        rec_all & layer & space.prime(below));
      }
    }
    std::vector<bdd::Bdd> final_j(nproc);
    bdd::Bdd actions = space.bdd_false();
    for (std::size_t j = 0; j < nproc; ++j) {
      const bdd::Bdd kept_rec =
          tolerant_groups(program, j, rec_j[j], rec_j[j] & layer_decreasing,
                          reach_ref, "analysis.layers", options);
      final_j[j] = inv_j[j] | kept_rec;
      actions |= final_j[j];
    }

    layers_span.close();

    // --- Deadlock check over the program's own reachable span ----------------------
    LR_TRACE_SPAN_NAMED(dl_span, "cautious_repair.deadlock_check");
    std::vector<bdd::Bdd> partitions = final_j;
    const std::vector<bdd::Bdd>& fault_parts = program.fault_action_deltas();
    partitions.insert(partitions.end(), fault_parts.begin(), fault_parts.end());
    const sym::TransitionRelation span_rel =
        sym::TransitionRelation::partitioned(space, partitions);
    const bdd::Bdd span = space.forward_reachable(span_rel, s1);
    // Refinement reference: the candidate program's reach from the *full*
    // candidate invariant — the set the next round restarts from. (Using
    // `span` alone could shrink the reference below the restart invariant
    // and blanket-tolerate legitimate states.)
    const bdd::Bdd span_full = space.forward_reachable(
        span_rel, program.invariant().minus(ms));
    if (refinements < 8 && !reach_ref.leq(span_full)) {
      // The candidate program visits fewer states than the tolerance
      // reference assumed: tighten the reference and redo the analysis
      // from the initial (S1, T1) so previously-rejected groups can enter.
      ++refinements;
      LR_LOG(debug) << "[cautious]   refine path";
      reach_ref &= span_full;
      if (options.journal != nullptr) {
        options.journal->refine(space.count_states(reach_ref));
      }
      s1 = program.invariant().minus(ms);
      t1 = valid_cur.minus(ms);
      continue;
    }
    // Dead-region check: a state is alive when some successor chain stays
    // alive (stutter loops keep legitimate terminals alive); banning the
    // backward-closed dead set at once avoids one-layer-per-round peeling.
    sym::TransitionRelation realized_rel(space);
    for (const bdd::Bdd& part : final_j) {
      if (!part.is_false()) realized_rel.add_part(part);
    }
    if (!inv_stutter.is_false()) realized_rel.add_part(inv_stutter);
    const bdd::Bdd deadlocks =
        span.minus(space.live_core(realized_rel, span));
    if (deadlocks.is_false()) {
      result.success = true;
      result.invariant = s1;
      result.fault_span = span;
      result.process_deltas = std::move(final_j);
      result.delta = actions;
      result.stats.span_states = space.count_states(span);
      result.stats.invariant_states = space.count_states(s1);
      if (options.journal != nullptr) options.journal->run_end(true, "");
      finish();
      // The whole run is one cautious pass; report it as "step 1" time so
      // the benchmark tables have a single comparable column.
      result.stats.step1_seconds = result.stats.total_seconds;
      if (support::trace::enabled()) {
        run_span.attr("invariant_states", result.stats.invariant_states);
        run_span.attr("span_states", result.stats.span_states);
        run_span.attr("outer_iterations",
                      static_cast<std::uint64_t>(result.stats.outer_iterations));
      }
      return result;
    }
    LR_LOG(debug) << "[cautious]   ban path: dl=" << space.count_states(deadlocks)
                  << " dl&t1=" << space.count_states(deadlocks & t1)
                  << " dl&s1=" << space.count_states(deadlocks & s1)
                  << " span=" << space.count_states(span);
    mt |= space.prime(deadlocks) & valid_pair;
    s1 = s1.minus(deadlocks);
    t1 = t1.minus(deadlocks);
    ++result.stats.deadlock_rounds;
    const double banned = space.count_states(deadlocks);
    result.stats.deadlock_states_banned += banned;
    result.stats.banned_trans_nodes = mt.node_count();
    if (options.journal != nullptr) {
      options.journal->deadlock_round(deadlocks,
                                      result.stats.banned_trans_nodes);
    }
    support::metrics::registry().set_gauge(
        "repair.deadlock_states.round" + std::to_string(round), banned);
  }

  result.failure_reason = "outer iteration bound exceeded";
  if (options.journal != nullptr) {
    options.journal->run_end(false, result.failure_reason);
  }
  finish();
  return result;
}

}  // namespace lr::repair
