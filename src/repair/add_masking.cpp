#include "repair/add_masking.hpp"

#include "repair/journal.hpp"
#include "repair/relation_setup.hpp"
#include "support/log.hpp"
#include "support/progress.hpp"
#include "support/trace.hpp"

namespace lr::repair {

StepOneResult add_masking(prog::DistributedProgram& program,
                          const bdd::Bdd& start_invariant,
                          const bdd::Bdd& extra_bad_trans,
                          const bdd::Bdd& context_in, const Options& options,
                          Stats& stats) {
  LR_TRACE_SPAN_NAMED(span, "add_masking");
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();

  const bdd::Bdd delta_p = program.program_delta();
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
  bdd::Bdd ms;
  {
    LR_TRACE_SPAN("add_masking.ms_fixpoint");
    ms = fault_unsafe_states(program, bad_states, bad_trans, context,
                             options.cancel.get());
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
  // ConstructInvariant of ref [1]: drop the states that deadlock.
  bdd::Bdd s1 = space.live_core(pieces_mt, s_orig.minus(ms));
  bdd::Bdd t1 = context.minus(ms);

  if (s1.is_false()) return result;

  // --- Shrink (S1, T1) to the largest consistent pair -------------------------
  // P1 = (δ_P ∧ S1 ∧ S1′) − mt ∪ rec_part, but no fixpoint below needs the
  // invariant side: every rec_part source lies in T1 − S1, and
  //  * the can-recover BFS starts from S1 ∩ T1, which already holds every
  //    predecessor an invariant piece could add;
  //  * the recovery layers only keep states of T1 − S1, where no invariant
  //    piece has a source;
  //  * the closure νZ stays inside S2 ⊆ S1, where rec_part has no source,
  //    and Z ∧ pre(·, Z) implies the S1, S1′ and S2′ conjuncts.
  // So each runs over the part of P1 that can fire in it, with no change
  // to any computed set.
  bdd::Bdd rec_part;
  std::size_t shrink_rounds = 0;
  // The manager's memory counters, sampled once per shrink round and per
  // recovery layer onto the trace's counter tracks.
  const auto trace_manager_counters = [&mgr] {
    support::trace::counter("bdd.live_nodes",
                            static_cast<double>(mgr.live_nodes()));
    support::trace::counter("bdd.unique_load", mgr.unique_load());
    const bdd::ManagerStats& cache = mgr.stats();
    support::trace::counter(
        "bdd.cache_hit_rate",
        cache.cache_lookups == 0
            ? 0.0
            : static_cast<double>(cache.cache_hits) /
                  static_cast<double>(cache.cache_lookups));
  };
  {
  LR_TRACE_SPAN("add_masking.shrink_fixpoint");
  support::progress::Heartbeat heartbeat("add_masking.shrink");
  while (true) {
      throw_if_cancelled(options.cancel);
      ++stats.addmasking_rounds;
      ++shrink_rounds;
      trace_manager_counters();
      if (heartbeat.due()) {
        heartbeat.emit("round " + std::to_string(stats.addmasking_rounds) +
                       ", live nodes " + std::to_string(mgr.live_nodes()));
      }
      // Proper transitions only: a self-loop outside the invariant would
      // let the program idle there forever, which recovery must rule out.
      rec_part = (writable & t1.minus(s1) & space.prime(t1) & valid_pair)
                     .minus(mt)
                     .minus(space.identity());

      // Failsafe tolerance has no recovery obligation: the span keeps
      // every safe state; it is fault-closed already because ms is
      // backward-closed under faults and the context is reach-closed.
      const bdd::Bdd t2 =
          options.level == ToleranceLevel::kFailsafe
              ? t1
              : recoverable_span(program, {&rec_part, 1}, s1, t1,
                                 options.cancel.get());

      const bdd::Bdd s2 = space.live_core(pieces_mt, s1 & t2);
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
  stats.recovery_layers = 0;
  {
    LR_TRACE_SPAN("add_masking.recovery_layers");
    support::progress::Heartbeat heartbeat("add_masking.recovery");
    while (!remaining.is_false()) {
      throw_if_cancelled(options.cancel);
      const bdd::Bdd layer = space.preimage({&rec_part, 1}, below) & remaining;
      if (layer.is_false()) break;
      const bdd::Bdd layer_added = rec_part & layer & space.prime(below);
      added |= layer_added;
      below |= layer;
      remaining = remaining.minus(layer);
      ++stats.recovery_layers;
      if (options.journal != nullptr) {
        options.journal->recovery_layer(stats.recovery_layers,
                                        space.count_states(layer),
                                        layer_added);
      }
      trace_manager_counters();
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
