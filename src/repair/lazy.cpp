#include "repair/lazy.hpp"

#include <span>

#include "repair/add_masking.hpp"
#include "repair/journal.hpp"
#include "repair/realize.hpp"
#include "repair/verify.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/progress.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace lr::repair {

namespace {

/// Removes, group-wise, the transitions that let executions spin outside
/// the invariant forever. Step 1 keeps original behavior outside the
/// invariant wholesale and layers only the *added* recovery, so the
/// realized program may cycle between kept original groups and synthesized
/// recovery groups; whole groups are removed (synthesized ones first,
/// original behavior as a last resort) so realizability is preserved.
///
/// The verifier's local proof (find_livelock_certificate) runs first; when
/// it finds a certificate, no cycle exists and the global νZ is skipped.
void eliminate_livelocks(prog::DistributedProgram& program,
                         const bdd::Bdd& invariant, const bdd::Bdd& span,
                         std::vector<bdd::Bdd>& deltas,
                         const Options& options) {
  LR_TRACE_SPAN_NAMED(livelock_span, "lazy_repair.eliminate_livelocks");
  sym::Space& space = program.space();
  const bdd::Bdd outside = span.minus(invariant);
  if (find_livelock_certificate(program, outside, deltas).has_value()) {
    livelock_span.attr("proof", "layers");
    return;
  }
  // The νZ below runs over the monolithic union of the deltas: its iterate
  // changes little per step, so the op cache absorbs repeat iterations
  // almost entirely. The first pass starts from the states outside the
  // invariant; each later pass starts from the previous pass's fixpoint.
  // Pruning only ever shrinks the deltas, so the old fixpoint
  // over-approximates the new one and the descent reaches the same νZ
  // from there.
  //
  // The passes stop only when the νZ is empty. That terminates: a
  // non-empty νZ puts some transition of some δ_j on the cycle states, and
  // every pass removes at least one transition. Either some synthesized
  // group is dropped (drop ≠ ∅ needs synthesized ≠ ∅), or every δ_j loses
  // the groups of its transitions on the cycle states, and some δ_j has
  // one. The deltas are finite, so the passes are too.
  bdd::Bdd cycle_states = outside;
  std::uint64_t iterations = 0;
  while (true) {
    throw_if_cancelled(options.cancel);
    bdd::Bdd actions = space.bdd_false();
    for (const bdd::Bdd& dj : deltas) actions |= dj;
    cycle_states =
        space.live_core(std::span(&actions, 1), cycle_states, &iterations);
    if (cycle_states.is_false()) break;
    const bdd::Bdd on_cycle = cycle_states & space.prime(cycle_states);
    bool removed_added = false;
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const bdd::Bdd synthesized =
          (deltas[j] & on_cycle).minus(program.process_delta(j));
      const bdd::Bdd drop = program.group(j, synthesized);
      if (!drop.is_false()) {
        if (options.journal != nullptr) {
          options.journal->prune("repair.livelock", "cycle", j, deltas[j],
                                 deltas[j].minus(drop));
        }
        deltas[j] = deltas[j].minus(drop);
        removed_added = true;
      }
    }
    if (removed_added) continue;
    // Cycles made purely of original behavior: break them group-wise.
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const bdd::Bdd kept =
          deltas[j].minus(program.group(j, deltas[j] & on_cycle));
      if (options.journal != nullptr) {
        options.journal->prune("repair.livelock", "cycle", j, deltas[j], kept);
      }
      deltas[j] = kept;
    }
  }
  livelock_span.attr("proof", "nu_z");
  livelock_span.attr("iterations", iterations);
}

}  // namespace

RepairResult lazy_repair(prog::DistributedProgram& program,
                         const Options& options) {
  sym::Space& space = program.space();
  support::Stopwatch total;
  LR_TRACE_SPAN_NAMED(run_span, "lazy_repair");

  RepairResult result;
  const auto finish = [&result, &space, &total] {
    result.stats.total_seconds = total.seconds();
    result.stats.bdd = space.manager().stats();
  };

  throw_if_cancelled(options.cancel);

  if (options.journal != nullptr) {
    options.journal->begin_run(program, "lazy",
                               tolerance_level_name(options.level));
  }

  bdd::Bdd candidate_invariant = program.invariant();
  bdd::Bdd extra_bad_trans = space.bdd_false();
  const bdd::Bdd identity = space.identity();
  const bdd::Bdd valid_pair = space.valid_pair();
  // The Section V-A heuristic's search space, computed once: deadlock bans
  // only ever shrink the program, so the round-1 reach stays a sound
  // restriction for every later round.
  bdd::Bdd context;
  if (options.restrict_to_reachable) {
    LR_TRACE_SPAN_NAMED(ctx_span, "lazy_repair.context_reach");
    context = program.reachable_under_faults();
    if (support::trace::enabled()) {
      ctx_span.attr("states", space.count_states(context));
    }
  }
  const std::vector<bdd::Bdd>& fault_parts = program.fault_action_deltas();

  support::progress::Heartbeat heartbeat("lazy_repair");
  for (std::size_t round = 0; round < options.max_outer_iterations; ++round) {
    throw_if_cancelled(options.cancel);
    ++result.stats.outer_iterations;
    if (options.journal != nullptr) options.journal->round_start(round);
    LR_TRACE_SPAN_NAMED(round_span, "lazy_repair.round");
    round_span.attr("round", static_cast<std::uint64_t>(round));
    support::trace::counter("repair.deadlock_round",
                            static_cast<double>(round));
    if (heartbeat.due()) {
      heartbeat.emit("outer round " + std::to_string(round) +
                     ", deadlock rounds " +
                     std::to_string(result.stats.deadlock_rounds) +
                     ", live nodes " +
                     std::to_string(space.manager().live_nodes()));
    }

    // Step 1: Add-Masking without realizability constraints.
    support::Stopwatch sw1;
    const StepOneResult step1 =
        add_masking(program, candidate_invariant, extra_bad_trans, context,
                    options, result.stats);
    result.stats.step1_seconds += sw1.seconds();
    if (!step1.success) {
      result.failure_reason = "Add-Masking found no fault-tolerant program";
      if (options.journal != nullptr) {
        options.journal->run_end(false, result.failure_reason);
      }
      finish();
      return result;
    }

    // Step 2: enforce the read/write restrictions. The don't-care zone of
    // Algorithm 2's Line 1 is the complement of δ'’s own reachable set
    // (every realizable sub-program stays within it), then drop group-wise
    // whatever would livelock.
    support::Stopwatch sw2;
    LR_TRACE_SPAN_NAMED(step2_span, "lazy_repair.step2");
    std::vector<bdd::Bdd> step1_parts{step1.delta};
    step1_parts.insert(step1_parts.end(), fault_parts.begin(),
                       fault_parts.end());
    const bdd::Bdd tolerance =
        space.forward_reachable(step1_parts, step1.invariant);
    std::vector<bdd::Bdd> deltas =
        realize(program, step1.delta, tolerance, options);
    if (options.level != ToleranceLevel::kFailsafe) {
      eliminate_livelocks(program, step1.invariant, tolerance, deltas,
                          options);
    }

    // Reachable span of the realized program (⊆ tolerance by
    // construction, so Line-1 don't-cares are indeed never executed).
    std::vector<bdd::Bdd> partitions = deltas;
    partitions.insert(partitions.end(), fault_parts.begin(), fault_parts.end());
    const bdd::Bdd realized_span =
        space.forward_reachable(partitions, step1.invariant);

    // Deadlock check (Algorithm 1 lines 10-12), over the states the
    // realized program actually visits, generalized to the whole dead
    // region at once: a state is alive when some successor chain stays
    // alive (original stutter loops kept by Step 1 keep their states
    // alive: those states legitimately idle). Banning the backward-closed
    // dead set in one round replaces the paper's one-layer-per-iteration
    // peeling; branch transitions from alive states into the dead region
    // are banned too, which is exactly the paper's Line 11.
    // The monolithic union is only needed for the failsafe branch; it is
    // built before the span opens, so the profile charges its work to
    // step2 rather than to the deadlock check.
    const bool failsafe = options.level == ToleranceLevel::kFailsafe;
    bdd::Bdd realized = space.bdd_false();
    if (failsafe) {
      realized = step1.delta & identity;
      for (const bdd::Bdd& dj : deltas) realized |= dj;
    }
    LR_TRACE_SPAN_NAMED(dl_span, "lazy_repair.deadlock_check");
    bdd::Bdd deadlocks;
    if (failsafe) {
      // Failsafe: only the invariant owes progress; stopping after a fault
      // is allowed. A state of S' whose actions were all dropped (and that
      // was not already a legitimate terminal) must still be banned.
      const bdd::Bdd enabled =
          space.manager().exists(realized, space.cube(sym::Version::kNext));
      deadlocks = step1.invariant.minus(enabled);
    } else {
      // Partitioned νZ: {δ' ∩ id} ∪ {δ_j} as disjuncts — the same fixpoint
      // as a νZ over the monolithic union, with per-step products that stay
      // small.
      std::vector<bdd::Bdd> realized_parts{step1.delta & identity};
      realized_parts.insert(realized_parts.end(), deltas.begin(),
                            deltas.end());
      deadlocks = realized_span.minus(
          space.live_core(realized_parts, realized_span));
    }
    result.stats.step2_seconds += sw2.seconds();

    if (deadlocks.is_false()) {
      result.success = true;
      result.invariant = step1.invariant;
      result.fault_span = realized_span;
      result.delta = space.bdd_false();
      for (const bdd::Bdd& dj : deltas) result.delta |= dj;
      result.process_deltas = std::move(deltas);
      result.stats.span_states = space.count_states(realized_span);
      result.stats.invariant_states = space.count_states(step1.invariant);
      if (options.journal != nullptr) options.journal->run_end(true, "");
      finish();
      if (support::trace::enabled()) {
        run_span.attr("invariant_states", result.stats.invariant_states);
        run_span.attr("span_states", result.stats.span_states);
        run_span.attr("outer_iterations",
                      static_cast<std::uint64_t>(result.stats.outer_iterations));
      }
      return result;
    }

    // Ban transitions into the deadlocked states and retry; also withdraw
    // those states from the invariant so the loop cannot revisit the same
    // deadlock forever.
    extra_bad_trans |= space.prime(deadlocks) & valid_pair;
    candidate_invariant = step1.invariant.minus(deadlocks);
    ++result.stats.deadlock_rounds;
    const double banned = space.count_states(deadlocks);
    result.stats.deadlock_states_banned += banned;
    result.stats.banned_trans_nodes = extra_bad_trans.node_count();
    if (options.journal != nullptr) {
      options.journal->deadlock_round(deadlocks,
                                      result.stats.banned_trans_nodes);
    }
    support::metrics::registry().set_gauge(
        "repair.deadlock_states.round" + std::to_string(round), banned);
    LR_LOG(debug) << "[lazy] round=" << round << " banned " << banned
                  << " deadlock states (ban relation "
                  << result.stats.banned_trans_nodes << " nodes)";
  }

  result.failure_reason = "outer iteration bound exceeded";
  if (options.journal != nullptr) {
    options.journal->run_end(false, result.failure_reason);
  }
  finish();
  return result;
}

}  // namespace lr::repair
