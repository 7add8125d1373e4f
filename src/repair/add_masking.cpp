#include "repair/add_masking.hpp"

#include <algorithm>
#include <span>

#include "repair/journal.hpp"
#include "repair/relation_setup.hpp"
#include "support/log.hpp"
#include "support/progress.hpp"
#include "support/trace.hpp"

namespace lr::repair {

namespace {

/// Removes deadlock states: the largest subset of `states` in which every
/// state has a `rel`-successor inside the subset (ConstructInvariant of
/// ref [1]).
bdd::Bdd construct_invariant(sym::Space& space, bdd::Bdd states,
                             const sym::TransitionRelation& rel) {
  while (true) {
    const bdd::Bdd alive = states & space.preimage(rel, states);
    if (alive == states) return states;
    states = alive;
  }
}

}  // namespace

StepOneResult add_masking(prog::DistributedProgram& program,
                          const bdd::Bdd& start_invariant,
                          const bdd::Bdd& extra_bad_trans,
                          const bdd::Bdd& context_in, const Options& options,
                          Stats& stats) {
  LR_TRACE_SPAN_NAMED(span, "add_masking");
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();

  const bdd::Bdd delta_p = program.program_delta();
  const bdd::Bdd faults = program.fault_delta();
  // Every fixpoint below runs over conjunctive/disjunctive partitions
  // with early quantification (symbolic/relation.hpp).
  const sym::TransitionRelation faults_rel = fault_relation(program);
  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  const bdd::Bdd valid_pair = space.valid_pair();
  // Nonmasking tolerance ignores the safety specification entirely: only
  // recovery matters (deadlock bans still arrive via extra_bad_trans).
  const bool use_safety = options.level != ToleranceLevel::kNonmasking;
  const bdd::Bdd bad_states =
      use_safety ? program.safety().bad_states : space.bdd_false();
  const bdd::Bdd bad_trans =
      (use_safety ? program.safety().bad_trans : space.bdd_false()) |
      extra_bad_trans;
  const bdd::Bdd s_orig = start_invariant;

  // Candidate recovery respects the *write* restrictions (some process must
  // be able to execute it); only the read restrictions — the NP-hard part —
  // are deferred to Step 2. Arbitrary multi-process jumps would be thrown
  // away wholesale by Step 2 anyway, starving recovery.
  bdd::Bdd writable = space.bdd_false();
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    writable |= program.respects_write(j);
  }

  StepOneResult result;
  if (s_orig.is_false()) return result;

  // The heuristic of Section V-A: only repair over the states the
  // fault-intolerant program visits in the presence of faults (or a caller-
  // provided refinement thereof).
  bdd::Bdd context = context_in;
  if (!context.valid()) {
    context = valid_cur;
    if (options.restrict_to_reachable) {
      context = space.forward_reachable(
          program_fault_relation(program), s_orig);
    }
  }
  stats.reachable_states = space.count_states(context);

  // --- ms: states from which one or more fault steps violate safety ----------
  bdd::Bdd ms = (bad_states |
                 mgr.exists(faults & bad_trans, space.cube(sym::Version::kNext))) &
                context;
  {
    LR_TRACE_SPAN("add_masking.ms_fixpoint");
    while (true) {
      throw_if_cancelled(options.cancel);
      const bdd::Bdd grown = (ms | space.preimage(faults_rel, ms)) & context;
      if (grown == ms) break;
      ms = grown;
    }
  }

  // --- mt: transitions the fault-tolerant program must never execute ----------
  const bdd::Bdd mt = (bad_trans | space.prime(ms)) & valid_pair;

  // --- First guesses S1, T1 ---------------------------------------------------
  // δ_P − mt as disjunctive pieces: one per process plus the stutter
  // completion. Subtraction distributes over the union, so the pieces'
  // union is exactly delta_p − mt.
  std::vector<bdd::Bdd> pieces_mt;
  for (const bdd::Bdd& piece : program_delta_pieces(program)) {
    const bdd::Bdd trimmed = piece.minus(mt);
    if (!trimmed.is_false()) pieces_mt.push_back(trimmed);
  }
  const sym::TransitionRelation delta_mt_rel =
      sym::TransitionRelation::partitioned(space, pieces_mt);
  bdd::Bdd s1 = construct_invariant(space, s_orig.minus(ms), delta_mt_rel);
  bdd::Bdd t1 = context.minus(ms);

  if (s1.is_false()) return result;

  // --- Shrink (S1, T1) to the largest consistent pair -------------------------
  sym::TransitionRelation p1_rel(space);
  std::size_t shrink_rounds = 0;
  {
  LR_TRACE_SPAN("add_masking.shrink_fixpoint");
  support::progress::Heartbeat heartbeat("add_masking.shrink");
  while (true) {
      throw_if_cancelled(options.cancel);
      ++stats.addmasking_rounds;
      ++shrink_rounds;
      support::trace::counter("bdd.live_nodes",
                              static_cast<double>(mgr.live_nodes()));
      support::trace::counter("bdd.unique_load", mgr.unique_load());
      support::trace::counter(
          "bdd.cache_hit_rate",
          mgr.stats().cache_lookups == 0
              ? 0.0
              : static_cast<double>(mgr.stats().cache_hits) /
                    static_cast<double>(mgr.stats().cache_lookups));
      if (heartbeat.due()) {
        heartbeat.emit("round " + std::to_string(stats.addmasking_rounds) +
                       ", live nodes " + std::to_string(mgr.live_nodes()));
      }
      // Proper transitions only: a self-loop outside the invariant would
      // let the program idle there forever, which recovery must rule out.
      const bdd::Bdd rec_part =
          (writable & t1.minus(s1) & space.prime(t1) & valid_pair)
              .minus(mt)
              .minus(space.identity());
      // P1 = (δ_P ∧ S1 ∧ S1') − mt ∪ rec_part. The invariant side stays
      // one part per δ_P piece with the S1 ∧ S1' restriction as a
      // conjunct — the product is never materialized; the combined
      // and-exists consumes the factors directly.
      p1_rel = sym::TransitionRelation(space);
      const bdd::Bdd inv_cross = s1 & space.prime(s1);
      for (const bdd::Bdd& piece : pieces_mt) {
        p1_rel.add_part(piece, inv_cross);
      }
      if (!rec_part.is_false()) p1_rel.add_part(rec_part);

      bdd::Bdd t2 = t1;
      while (options.level != ToleranceLevel::kFailsafe) {
        // Drop T states that cannot reach S via available transitions.
        // (Failsafe tolerance has no recovery obligation: the span keeps
        // every safe state; it is fault-closed already because ms is
        // backward-closed under faults and the context is reach-closed.)
        bdd::Bdd can_recover = s1 & t2;
        while (true) {
          const bdd::Bdd grown =
              can_recover | (t2 & space.preimage(p1_rel, can_recover));
          if (grown == can_recover) break;
          can_recover = grown;
        }
        bdd::Bdd t2_new = can_recover;
        // Drop states from which faults escape the span.
        while (true) {
          const bdd::Bdd escaping =
              t2_new & space.preimage(faults_rel, valid_cur.minus(t2_new));
          if (escaping.is_false()) break;
          t2_new = t2_new.minus(escaping);
        }
        if (t2_new == t2) break;
        t2 = t2_new;
      }

      bdd::Bdd s2 = s1 & t2;
      {
        // P1 ∧ S2' without materializing the product: prime(s2) rides as
        // one more conjunct of every part.
        const bdd::Bdd s2_primed = space.prime(s2);
        sym::TransitionRelation closure_rel(space);
        for (const bdd::Bdd& piece : pieces_mt) {
          const bdd::Bdd conjuncts[3] = {piece, inv_cross, s2_primed};
          closure_rel.add_part(std::span<const bdd::Bdd>(conjuncts, 3));
        }
        if (!rec_part.is_false()) closure_rel.add_part(rec_part, s2_primed);
        s2 = construct_invariant(space, s2, closure_rel);
      }
      if (s2.is_false()) return result;

      if (options.journal != nullptr) {
        options.journal->fixpoint_round("add_masking.shrink", shrink_rounds,
                                        space.count_states(s2),
                                        space.count_states(t2));
      }
      if (s2 == s1 && t2 == t1) break;
      s1 = s2;
      t1 = t2;
    }
  }

  // --- Construct δ' with maximal behavior ---------------------------------------
  // Original behavior is kept wholesale (inside and outside the invariant);
  // *added* recovery is kept only when it strictly decreases the
  // backward-BFS layer distance to S1. Potential livelocks formed by mixing
  // kept original behavior with added recovery are resolved *after* Step 2,
  // at group granularity, by Algorithm 1 — removing them here transition-
  // by-transition would destroy the group symmetry Step 2 depends on.
  const bdd::Bdd inv_part = (delta_p & s1 & space.prime(s1)).minus(mt);
  const bdd::Bdd outside = t1.minus(s1);
  // Original behavior outside the invariant is kept wholesale, except
  // stutter steps: idling outside S1 forever is exactly what masking
  // tolerance forbids.
  const bdd::Bdd original_outside =
      (delta_p & outside & space.prime(t1)).minus(mt).minus(space.identity());

  bdd::Bdd below = s1;
  bdd::Bdd added = space.bdd_false();
  bdd::Bdd remaining =
      options.level == ToleranceLevel::kFailsafe ? space.bdd_false() : outside;
  // The layer BFS's `added` sets need P1's transitions, not just its
  // preimages: materialize the union once.
  bdd::Bdd p1_flat;
  if (!remaining.is_false()) p1_flat = p1_rel.flat();
  stats.recovery_layers = 0;
  {
    LR_TRACE_SPAN("add_masking.recovery_layers");
    support::progress::Heartbeat heartbeat("add_masking.recovery");
    while (!remaining.is_false()) {
      throw_if_cancelled(options.cancel);
      const bdd::Bdd layer = space.preimage(p1_rel, below) & remaining;
      if (layer.is_false()) break;
      const bdd::Bdd layer_added = p1_flat & layer & space.prime(below);
      added |= layer_added;
      below |= layer;
      remaining = remaining.minus(layer);
      ++stats.recovery_layers;
      if (options.journal != nullptr) {
        options.journal->recovery_layer(stats.recovery_layers,
                                        space.count_states(layer),
                                        layer_added);
      }
      support::trace::counter("bdd.live_nodes",
                              static_cast<double>(mgr.live_nodes()));
      support::trace::counter("bdd.unique_load", mgr.unique_load());
      support::trace::counter(
          "bdd.cache_hit_rate",
          mgr.stats().cache_lookups == 0
              ? 0.0
              : static_cast<double>(mgr.stats().cache_hits) /
                    static_cast<double>(mgr.stats().cache_lookups));
      if (heartbeat.due()) {
        heartbeat.emit("layer " + std::to_string(stats.recovery_layers) +
                       ", live nodes " + std::to_string(mgr.live_nodes()));
      }
    }
  }

  const bdd::Bdd final_delta = inv_part | original_outside | added;

  result.success = true;
  result.invariant = s1;
  result.fault_span = t1;
  result.delta = final_delta;
  stats.span_states = space.count_states(t1);
  stats.invariant_states = space.count_states(s1);
  if (options.journal != nullptr) {
    options.journal->step_one_summary(stats.invariant_states,
                                      stats.span_states, shrink_rounds,
                                      stats.recovery_layers);
  }
  stats.peak_bdd_nodes =
      std::max(stats.peak_bdd_nodes, mgr.stats().peak_nodes);
  LR_LOG(debug) << "[add_masking] rounds=" << stats.addmasking_rounds
                << " recovery_layers=" << stats.recovery_layers
                << " |S'|=" << stats.invariant_states
                << " |T'|=" << stats.span_states;
  if (support::trace::enabled()) {
    span.attr("rounds", static_cast<std::uint64_t>(stats.addmasking_rounds));
    span.attr("recovery_layers",
              static_cast<std::uint64_t>(stats.recovery_layers));
    span.attr("invariant_states", stats.invariant_states);
    span.attr("span_states", stats.span_states);
    span.attr("delta_nodes",
              static_cast<std::uint64_t>(final_delta.node_count()));
  }
  return result;
}

}  // namespace lr::repair
