#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// Verdict of the independent symbolic verifier.
struct VerifyReport {
  bool ok = false;
  std::vector<std::string> failures;  ///< human-readable failed checks

  // Individual checks (true = passed). `ok` is their conjunction.
  bool invariant_nonempty = false;
  bool invariant_subset = false;      ///< S' ⊆ S
  bool no_new_behavior = false;       ///< δ'|S' ⊆ δ_P|S'
  bool invariant_closed = false;      ///< image(δ', S') ⊆ S'
  bool safe_in_invariant = false;     ///< no bad state/transition inside S'
  bool safety_under_faults = false;   ///< no bad state/transition reachable
  bool deadlock_free = false;         ///< stuck states are legit terminals in S'
  bool livelock_free = false;         ///< no infinite run avoiding S'
  bool livelock_certified = false;    ///< a ranking certificate decided it
  bool realizable = false;            ///< Definitions 19/20 hold for each δ_j
  bool span_covers_reachable = false; ///< reported T' ⊇ Reach(S', δ' ∪ f)

  double reachable_span_states = -1.0;
};

/// A ranking certificate that no run of the stutter-completed ∪_j δ_j stays
/// in a set O forever (DESIGN.md §6 item 11).
struct LivelockCertificate {
  /// Every process once; each process-graph edge k → j puts k before j.
  std::vector<std::size_t> order;
  /// ranks[j][i]: the states of rank i for process j, over the current
  /// copy of V_j. A state's rank is the least i whose set holds it.
  std::vector<std::vector<bdd::Bdd>> ranks;
};

/// The certificate for `deltas` over `outside`: the process graph's
/// topological order, and for each j the peel index of the local νZ of
/// ∃-projected δ_j over ∃-projected `outside`. nullopt when the graph is
/// cyclic (no BDD work) or some local νZ is non-empty.
///
/// Repair and the verifier share this finder. Lazy repair takes a found
/// certificate as its proof that no run stays in `outside` forever, which
/// holds when each δ_j changes only writes_j (realize() ensures it;
/// DESIGN.md §6 item 10). The verifier decides only with
/// check_livelock_certificate.
[[nodiscard]] std::optional<LivelockCertificate> find_livelock_certificate(
    prog::DistributedProgram& program, const bdd::Bdd& outside,
    std::span<const bdd::Bdd> deltas);

/// Checks `cert` on the global deltas. True proves that no run of
/// stutter_completion(∪_j δ_j) stays in `outside` forever; `enabled` must
/// be ∃x′. ∪_j δ_j. The checks: the order is a topological order of the
/// process graph; `outside` ⊆ `enabled` (no stutter step in it); every
/// δ_j ⊆ respects_write(j); every rank set depends on V_j only; and
/// δ_j ∧ outside ∧ outside′ ⊆ r_j(x′) < r_j(x).
[[nodiscard]] bool check_livelock_certificate(
    prog::DistributedProgram& program, const bdd::Bdd& outside,
    const bdd::Bdd& enabled, std::span<const bdd::Bdd> deltas,
    const LivelockCertificate& cert);

/// Independently verifies that a repair result is a *realizable masking
/// f-tolerant* program (Theorems 1 and 2): re-derives the fault span from
/// scratch and checks closure, safety, recovery (deadlock + livelock
/// freedom, by a ranking certificate or else a νZ fixpoint), the
/// no-new-behavior condition, and the read/write realizability of every
/// process delta.
///
/// The program's Definition-18 semantics (stuttering at states with no
/// enabled action) is applied to the result's process deltas before
/// checking.
/// `level` selects which obligations are checked: kFailsafe drops the
/// recovery checks (deadlocks/livelocks outside S' are permitted),
/// kNonmasking drops the safety-under-faults checks. Both keep the
/// invariant-side requirements (closure, no new behavior, SPEC inside S').
[[nodiscard]] VerifyReport verify_masking(
    prog::DistributedProgram& program, const RepairResult& result,
    ToleranceLevel level = ToleranceLevel::kMasking);

/// Verifies that a *standalone* program (typically a repaired model written
/// by export_model and parsed back) is itself f-tolerant, without access to
/// the RepairResult that produced it. The candidate invariant is re-derived
/// from the model: the largest subset of its declared invariant that avoids
/// the fault-unsafe states (ms, computed over the full valid space) and is
/// closed under the model's own stutter-completed transitions; the fault
/// span is fresh forward reachability from that set. The derived set
/// contains any genuine repair's S', so a corrupted or hand-edited export
/// fails at least one check of verify_masking — the staleness signal batch
/// --resume needs, at a fraction of the cost of re-running the repair. An
/// export declares the repair's S' as its invariant, so for a correct one
/// the derived set is S' itself and its span lies in the repair's T'.
[[nodiscard]] VerifyReport verify_tolerant_model(
    prog::DistributedProgram& program,
    ToleranceLevel level = ToleranceLevel::kMasking);

}  // namespace lr::repair
