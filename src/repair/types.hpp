#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "repair/cancel.hpp"

namespace lr::repair {

class Journal;

/// Row label of the benchmark harness's table rows, which still carry
/// the group method that Step 2 and cautious repair once switched on.
/// Repair ignores it: both realize groups with one ∀ per process
/// (repair/realize.hpp). To be deleted with the harness's method column.
enum class GroupMethod {
  kPaperLoop,
  kOneShot,
};

/// Which level of the fault-tolerance hierarchy to add (Kulkarni-Arora).
/// The paper's algorithms target masking; the other two levels drop one of
/// its two obligations and fall out of the same machinery.
enum class ToleranceLevel {
  /// Safety only: in the presence of faults the program never violates the
  /// safety specification, but it may stop making progress (no recovery
  /// obligation).
  kFailsafe,
  /// Recovery only: from every reachable state the program converges back
  /// to the invariant, but safety may be violated in the meantime.
  kNonmasking,
  /// Both: the paper's problem statement.
  kMasking,
};

/// Display name of a tolerance level ("masking", "failsafe", "nonmasking").
[[nodiscard]] constexpr const char* tolerance_level_name(ToleranceLevel level) {
  switch (level) {
    case ToleranceLevel::kFailsafe: return "failsafe";
    case ToleranceLevel::kNonmasking: return "nonmasking";
    case ToleranceLevel::kMasking: break;
  }
  return "masking";
}

/// Tuning knobs shared by the repair algorithms.
struct Options {
  /// Tolerance level to add. Algorithms treat kMasking as in the paper;
  /// kFailsafe skips the recovery obligations, kNonmasking the safety ones.
  ToleranceLevel level = ToleranceLevel::kMasking;
  /// The Step-1 heuristic the paper credits for the speedup: restrict
  /// Add-Masking's search space to the states the fault-intolerant program
  /// reaches in the presence of faults ("pure lazy repair does not improve
  /// the performance", Section I/VI).
  bool restrict_to_reachable = true;

  /// Benchmark row label; repair ignores it (see GroupMethod).
  GroupMethod group_method = GroupMethod::kPaperLoop;

  /// Bound on Algorithm 1's outer repeat loop (defensive; case studies
  /// converge in 1-2 iterations).
  std::size_t max_outer_iterations = 64;

  /// Cooperative cancellation: when set, the lazy/cautious/add_masking/
  /// realize loops call throw_if_cancelled() at fixpoint-round granularity
  /// and abort with repair::Cancelled once the token expires (explicit
  /// cancel() or a with_timeout() deadline). Null means never cancelled.
  /// The batch executor uses this to enforce --task-timeout.
  std::shared_ptr<CancelToken> cancel;

  /// Decision journal sink (see repair/journal.hpp). Null disables
  /// journaling entirely — the algorithms emit events (and pay for the
  /// witness extraction and state counting behind them) only when set.
  /// Non-owning: the caller keeps the Journal alive through the run and
  /// must not let it outlive the program's Space. Threaded like `cancel`.
  Journal* journal = nullptr;
};

/// Measurements reported by the algorithms; the benchmark tables are
/// printed from these.
struct Stats {
  double step1_seconds = 0.0;  ///< Add-Masking time (Table "Time for Step 1")
  double step2_seconds = 0.0;  ///< Algorithm 2 time (Table "Time for Step 2")
  double total_seconds = 0.0;

  std::size_t outer_iterations = 0;       ///< Algorithm 1 repeat rounds
  std::size_t addmasking_rounds = 0;      ///< Step-1 outer fixpoint rounds
  /// Always 0: Step 2 runs no group loop. Kept for the benchmark
  /// harness, which still reads them; to be deleted with its method column.
  std::size_t group_iterations = 0;
  std::size_t expand_successes = 0;
  std::size_t expand_failures = 0;
  std::size_t recovery_layers = 0;        ///< BFS layers of the fault span

  double reachable_states = -1.0;  ///< |Reach(S, δ_P ∪ f)| (table column 1)
  double span_states = -1.0;       ///< |T'| of the result
  double invariant_states = -1.0;  ///< |S'| of the result
  std::size_t peak_bdd_nodes = 0;  ///< engine high-water mark

  /// Deadlock-elimination history across Algorithm 1's outer iterations:
  /// how many rounds had to ban states, how many states they banned in
  /// total, and the BDD size of the accumulated banned-transition relation.
  std::size_t deadlock_rounds = 0;
  double deadlock_states_banned = 0.0;
  std::size_t banned_trans_nodes = 0;

  /// BDD engine counters captured when the algorithm returned (cache
  /// hit/miss, GC activity, node populations — see bdd::ManagerStats).
  bdd::ManagerStats bdd;
};

/// Result of Step 1 (Add-Masking without realizability constraints).
struct StepOneResult {
  bool success = false;
  bdd::Bdd invariant;   ///< S'
  bdd::Bdd fault_span;  ///< T'
  /// δ': transitions of the (possibly unrealizable) masking program —
  /// original transitions inside S' plus layered recovery; the only
  /// self-loops are original stutter steps inside S'.
  bdd::Bdd delta;
};

/// Result of a full repair (lazy or cautious).
struct RepairResult {
  bool success = false;
  std::string failure_reason;
  bdd::Bdd invariant;   ///< S'
  bdd::Bdd fault_span;  ///< T'
  /// Realizable per-process transition predicates δ_j (proper transitions;
  /// Definition-18 stuttering supplies self-loops).
  std::vector<bdd::Bdd> process_deltas;
  /// ∪_j δ_j.
  bdd::Bdd delta;
  Stats stats;
};

}  // namespace lr::repair
