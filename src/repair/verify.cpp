#include "repair/verify.hpp"

#include "repair/relation_setup.hpp"
#include "support/trace.hpp"

namespace lr::repair {

namespace {

/// r(x′) < r(x) for the rank given by `ranks`: a state of rank i steps to
/// a state of some rank below i.
bdd::Bdd falls(sym::Space& space, std::span<const bdd::Bdd> ranks) {
  bdd::Bdd below = space.bdd_false();
  bdd::Bdd result = space.bdd_false();
  for (const bdd::Bdd& rank : ranks) {
    result |= rank.minus(below) & space.prime(below);
    below |= rank;
  }
  return result;
}

}  // namespace

std::optional<LivelockCertificate> find_livelock_certificate(
    prog::DistributedProgram& program, const bdd::Bdd& outside,
    std::span<const bdd::Bdd> deltas) {
  std::optional<std::vector<std::size_t>> order = program.process_order();
  if (!order) return std::nullopt;
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  LivelockCertificate cert{std::move(*order), {}};
  cert.ranks.resize(deltas.size());
  for (std::size_t j = 0; j < deltas.size(); ++j) {
    // V_j = R_j, so the bits outside V_j are the unreadable ones.
    const bdd::Bdd& hidden = program.unreadable_cube(j);
    const bdd::Bdd local = mgr.exists(deltas[j], hidden);
    // Rank i: the states peeled at step i, whose local successors in the
    // iterate all have a rank below i.
    const bdd::Bdd cycling =
        space.live_core(std::span(&local, 1), mgr.exists(outside, hidden),
                        nullptr, &cert.ranks[j]);
    if (!cycling.is_false()) return std::nullopt;
  }
  return cert;
}

bool check_livelock_certificate(prog::DistributedProgram& program,
                                const bdd::Bdd& outside,
                                const bdd::Bdd& enabled,
                                std::span<const bdd::Bdd> deltas,
                                const LivelockCertificate& cert) {
  const std::size_t processes = program.process_count();
  if (deltas.size() != processes || cert.order.size() != processes ||
      cert.ranks.size() != processes) {
    return false;
  }
  std::vector<std::size_t> position(processes, processes);
  for (std::size_t i = 0; i < processes; ++i) {
    const std::size_t j = cert.order[i];
    if (j >= processes || position[j] != processes) return false;
    position[j] = i;
  }
  for (std::size_t k = 0; k < processes; ++k) {
    for (std::size_t j = 0; j < processes; ++j) {
      if (program.writes_into(k, j) && position[k] > position[j]) return false;
    }
  }
  if (!outside.leq(enabled)) return false;
  for (std::size_t j = 0; j < processes; ++j) {
    if (!deltas[j].leq(program.respects_write(j))) return false;
  }
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  const bdd::Bdd next_cube = space.cube(sym::Version::kNext);
  const bdd::Bdd stays = outside & space.prime(outside);
  for (std::size_t j = 0; j < processes; ++j) {
    const bdd::Bdd foreign = program.unreadable_cube(j) & next_cube;
    for (const bdd::Bdd& rank : cert.ranks[j]) {
      if (mgr.exists(rank, foreign) != rank) return false;
    }
    if (!(deltas[j] & stays).leq(falls(space, cert.ranks[j]))) return false;
  }
  return true;
}

VerifyReport verify_masking(prog::DistributedProgram& program,
                            const RepairResult& result,
                            ToleranceLevel level) {
  LR_TRACE_SPAN_NAMED(verify_span, "verify_masking");
  VerifyReport report;
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();

  auto fail = [&report](bool& flag, bool passed, const std::string& message) {
    flag = passed;
    if (!passed) report.failures.push_back(message);
  };

  if (!result.success) {
    report.failures.push_back("result is not marked successful");
    return report;
  }
  if (result.process_deltas.size() != program.process_count()) {
    report.failures.push_back("wrong number of process deltas");
    return report;
  }

  const bdd::Bdd s_orig = program.invariant();
  const bdd::Bdd delta_orig = program.program_delta();
  const bdd::Bdd faults = program.fault_delta();
  const bdd::Bdd identity = space.identity();
  const bdd::Bdd s_new = result.invariant;

  // Assembled program: union of process deltas + Definition-18 stuttering.
  bdd::Bdd actions = space.bdd_false();
  for (const bdd::Bdd& dj : result.process_deltas) actions |= dj;
  const bdd::Bdd delta = program.stutter_completion(actions);

  fail(report.invariant_nonempty, !s_new.is_false(), "S' is empty");
  fail(report.invariant_subset, s_new.leq(s_orig), "S' is not a subset of S");

  // δ'|S' ⊆ δ_P|S' — no new behavior inside the invariant.
  const bdd::Bdd inside = delta & s_new & space.prime(s_new);
  fail(report.no_new_behavior, inside.leq(delta_orig),
       "new transitions were added inside the invariant");

  // Closure of S' in δ'.
  fail(report.invariant_closed, space.image(std::span(&delta, 1), s_new).leq(s_new),
       "S' is not closed under the repaired program");

  // Safety inside the invariant.
  const prog::SafetySpec& spec = program.safety();
  fail(report.safe_in_invariant,
       s_new.disjoint(spec.bad_states) && (delta & s_new).disjoint(spec.bad_trans),
       "safety violated inside the invariant");

  // Safety in the presence of faults, over the actual reachable span
  // (partitioned reachability: one relation per process delta and fault
  // action, plus the stutter steps which add nothing).
  std::vector<bdd::Bdd> partitions = result.process_deltas;
  const std::vector<bdd::Bdd>& fault_parts = program.fault_action_deltas();
  partitions.insert(partitions.end(), fault_parts.begin(), fault_parts.end());
  const bdd::Bdd span = space.forward_reachable(partitions, s_new);
  report.reachable_span_states = space.count_states(span);
  fail(report.safety_under_faults,
       level == ToleranceLevel::kNonmasking ||
           (span.disjoint(spec.bad_states) &&
            ((delta | faults) & span).disjoint(spec.bad_trans)),
       "safety violated in the presence of faults");

  fail(report.span_covers_reachable, span.leq(result.fault_span),
       "reported fault span does not cover the reachable span");

  // Deadlock freedom: a state with no enabled action stutters; that is only
  // legitimate where the *original* program stuttered, inside S'.
  const bdd::Bdd enabled =
      mgr.exists(actions, space.cube(sym::Version::kNext));
  const bdd::Bdd stuck = level == ToleranceLevel::kFailsafe
                             ? span.minus(enabled) & s_new
                             : span.minus(enabled);
  fail(report.deadlock_free,
       stuck.leq(s_new) && (stuck & identity).leq(delta_orig),
       "a reachable state deadlocks outside a legitimate terminal state");

  // Livelock freedom: no infinite execution stays in O = span − S' (faults
  // are finite by Definition 13, so program transitions alone must
  // converge). A ranking certificate decides it without a global fixpoint
  // when one applies (DESIGN.md §6 item 11); otherwise the νZ does, and
  // (span − S') ∩ pre(δ', Z) must be empty. Failsafe checks no recovery,
  // so its O is empty.
  bdd::Bdd z = level == ToleranceLevel::kFailsafe ? space.bdd_false()
                                                   : span.minus(s_new);
  if (level != ToleranceLevel::kFailsafe) {
    const std::optional<LivelockCertificate> cert =
        find_livelock_certificate(program, z, result.process_deltas);
    report.livelock_certified =
        cert.has_value() && check_livelock_certificate(program, z, enabled,
                                                       result.process_deltas,
                                                       *cert);
  }
  verify_span.attr("livelock_proof",
                   report.livelock_certified ? "certificate" : "nu_z");
  if (!report.livelock_certified) {
    z = space.live_core(std::span(&delta, 1), z);
  }
  fail(report.livelock_free, report.livelock_certified || z.is_false(),
       "an infinite execution can avoid the invariant (recovery fails)");

  // Realizability of each process delta (Definition 19) and of the program
  // (Definition 20: δ = ∪ δ_j by construction).
  bool realizable = true;
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const bdd::Bdd& dj = result.process_deltas[j];
    if (!dj.disjoint(identity)) realizable = false;             // proper
    if (!dj.leq(program.respects_write(j))) realizable = false; // write
    if (program.group(j, dj) != dj) realizable = false;         // read
  }
  fail(report.realizable, realizable,
       "some process delta violates its read/write restrictions");

  report.ok = report.failures.empty();
  return report;
}

VerifyReport verify_tolerant_model(prog::DistributedProgram& program,
                                   ToleranceLevel level) {
  LR_TRACE_SPAN("verify_tolerant_model");
  sym::Space& space = program.space();
  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);

  // View the model's own processes as the "repair result" under test.
  RepairResult view;
  view.success = true;
  view.delta = space.bdd_false();
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    view.process_deltas.push_back(program.process_delta(j));
    view.delta |= view.process_deltas.back();
  }

  // ms: states from which faults alone can violate safety, over the full
  // valid space (no reachability restriction — this is verification, not
  // synthesis, so over-approximating costs only precision of S', and the
  // closure step below removes any state the model cannot keep safe).
  const bdd::Bdd ms =
      level == ToleranceLevel::kNonmasking
          ? space.bdd_false()
          : fault_unsafe_states(program, program.safety().bad_states,
                                program.safety().bad_trans, valid_cur,
                                nullptr);

  // Candidate S': the largest subset of the declared invariant avoiding ms
  // and closed under the model's stutter-completed transitions. Stutter
  // steps never leave a set, so closure under the process deltas alone is
  // the same condition. Any genuine repair's S' is such a set, so this
  // derivation never under-shoots a correct export.
  view.invariant = closed_subset(space, view.process_deltas,
                                 program.invariant().minus(ms));

  std::vector<bdd::Bdd> partitions = view.process_deltas;
  const std::vector<bdd::Bdd>& fault_parts = program.fault_action_deltas();
  partitions.insert(partitions.end(), fault_parts.begin(), fault_parts.end());
  view.fault_span = space.forward_reachable(partitions, view.invariant);

  return verify_masking(program, view, level);
}

}  // namespace lr::repair
