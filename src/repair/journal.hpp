#pragma once

// Repair decision journal: a structured event sink recording *which*
// decisions one repair run made — per deadlock round the banned-state
// count, the groups accepted per process and phase, every transition
// set pruned (with the reason) or added, and the fixpoint
// convergence deltas — so the lazy-vs-cautious tradeoff is inspectable
// per round instead of only through aggregate timings.
//
// Pruned-transition and newly-deadlocked events carry a concrete witness
// state (bdd::sat_one over the predicate, decoded via the program's
// variable map), which makes journal entries checkable claims: the
// witness of a pruned set must satisfy the pre-prune predicate and
// violate the post-prune one, and the re-check test does exactly that.
//
// Serialization is JSONL (one event object per line, header line first)
// under a versioned schema, like the batch checkpoint manifest. The
// output contains no timing and no machine-local paths, so a journal is
// byte-identical across --jobs counts and across reruns of the same
// deterministic repair. Opt-in and observation-only: the algorithms emit
// only when Options::journal is non-null, and journaling never changes a
// repair decision. Single-threaded like the BDD manager — the batch
// executor creates one Journal per task, and a Journal must not outlive
// the program Space it was bound to (events keep live Bdd handles).

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "program/distributed_program.hpp"

namespace lr::repair {

/// Journal serialization format version (the JSONL header's "schema").
inline constexpr int kJournalSchemaVersion = 1;

/// A concrete state or transition backing an event, one value per program
/// variable. `to` is empty for state witnesses.
struct JournalWitness {
  std::vector<std::uint32_t> from;
  std::vector<std::uint32_t> to;
};

/// One recorded decision. String and numeric fields are kept in sorted
/// maps so serialization order is deterministic by construction.
struct JournalEvent {
  std::string kind;
  std::map<std::string, std::string> text;
  std::map<std::string, double> num;
  std::optional<JournalWitness> witness;
  /// The checkable claim behind `witness`: it was drawn from pre ∖ post
  /// (post may be invalid, meaning "from pre"). Live handles for
  /// in-process consumers — the witness re-check test — never serialized.
  bdd::Bdd pre;
  bdd::Bdd post;
};

class Journal {
 public:
  /// Binds the journal to a run and emits the header-backing run_start
  /// event. Clears any previous run's events, so one instance records
  /// exactly one repair.
  void begin_run(prog::DistributedProgram& program, std::string_view algorithm,
                 std::string_view level);

  /// Adds a header key ("model": file stem, ...). May be called before or
  /// after begin_run; the header line is assembled at serialization time.
  void meta(const std::string& key, const std::string& value);

  /// Starts outer round `round`; subsequent events are stamped with it.
  void round_start(std::size_t round);

  /// One iteration of a shrink fixpoint: the (S1, T1) pair it converged
  /// toward this step — the convergence delta is the difference between
  /// consecutive events.
  void fixpoint_round(std::string_view phase, std::size_t iteration,
                      double invariant_states, double span_states);

  /// One BFS recovery layer: `layer_states` states gained a path to S',
  /// `added` is the transition set added for them.
  void recovery_layer(std::size_t layer, double layer_states,
                      const bdd::Bdd& added);

  /// Step-1 summary of one outer round.
  void step_one_summary(double invariant_states, double span_states,
                        std::size_t fixpoint_rounds,
                        std::size_t recovery_layers);

  /// Groups accepted into δ_j (one union per process and phase).
  void group_accepted(std::string_view phase, std::size_t process,
                      const bdd::Bdd& group);

  /// Transition set pruned from a candidate delta: the pruned set is
  /// pre ∖ post, the witness one of its transitions. No-op when empty.
  void prune(std::string_view phase, std::string_view reason,
             std::size_t process, const bdd::Bdd& pre, const bdd::Bdd& post);

  /// One deadlock-ban round: `deadlocks` became dead and are withdrawn;
  /// the witness is one newly-deadlocked state.
  void deadlock_round(const bdd::Bdd& deadlocks, std::size_t ban_trans_nodes);

  /// Cautious refinement: the reachability reference was tightened.
  void refine(double reachable_states);

  void run_end(bool success, std::string_view reason);

  /// True once begin_run bound a program (the algorithms' emit guard is
  /// the Options::journal pointer, not this).
  [[nodiscard]] bool bound() const noexcept { return space_ != nullptr; }

  [[nodiscard]] const std::vector<JournalEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<std::string>& variable_names()
      const noexcept {
    return var_names_;
  }
  [[nodiscard]] const std::vector<std::string>& process_names()
      const noexcept {
    return proc_names_;
  }
  [[nodiscard]] const std::string& algorithm() const noexcept {
    return algorithm_;
  }
  [[nodiscard]] const std::string& level() const noexcept { return level_; }

  /// JSONL: one header line ({"schema": 1, "event": "journal", ...}) then
  /// one line per event in emission order.
  [[nodiscard]] std::string to_jsonl() const;

  /// Atomically writes to_jsonl() to `path`.
  [[nodiscard]] bool save(const std::string& path) const;

 private:
  JournalEvent& push(std::string kind);
  void attach_state_witness(JournalEvent& event, const bdd::Bdd& set);
  void attach_transition_witness(JournalEvent& event, const bdd::Bdd& pruned);

  sym::Space* space_ = nullptr;
  std::vector<std::string> var_names_;
  std::vector<std::string> proc_names_;
  std::string algorithm_;
  std::string level_;
  std::map<std::string, std::string> meta_;
  std::vector<JournalEvent> events_;
  std::size_t seq_ = 0;
  std::optional<std::size_t> round_;
};

/// Human-readable per-round narrative of a journal — the `--explain`
/// output. Witness states render in describe_process_program's naming
/// ("name=value" guards, "name:=value" updates).
[[nodiscard]] std::vector<std::string> describe_journal(
    const Journal& journal);

}  // namespace lr::repair
