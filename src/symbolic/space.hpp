#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"

namespace lr::sym {

/// Identifier of a finite-domain program variable within a Space.
using VarId = std::uint32_t;

/// Which copy of the state a formula talks about: the pre-state (current)
/// or the post-state (next) of a transition.
enum class Version { kCurrent, kNext };

/// Metadata for one finite-domain variable.
struct VariableInfo {
  std::string name;
  std::uint32_t domain = 0;  ///< values are 0 .. domain-1
  std::uint32_t bits = 0;    ///< ceil(log2(domain)), at least 1
  std::vector<bdd::VarIndex> cur_bits;   ///< LSB first
  std::vector<bdd::VarIndex> next_bits;  ///< LSB first
};

/// A symbolic state space over finite-domain variables (Definition 16).
///
/// Every program variable with domain D is log-encoded into ceil(log2 D)
/// boolean variables; each boolean variable exists in a *current* and a
/// *next* copy, and the copies are interleaved in the BDD order
/// (b0, b0', b1, b1', ...) — the standard ordering for transition
/// relations. State predicates are BDDs over current bits; transition
/// predicates are BDDs over current and next bits.
///
/// The Space owns its BDD manager: one synthesis problem = one Space = one
/// manager, which matches the paper's tool structure and keeps lifetimes
/// trivial. After the first query that needs whole-space structures (cubes,
/// the prime/unprime permutation), the variable set is frozen and
/// add_variable() throws.
class Space {
 public:
  explicit Space(bdd::Manager::Options options = {});

  Space(const Space&) = delete;
  Space& operator=(const Space&) = delete;

  /// Declares a variable with values 0..domain-1. Allocation order defines
  /// the BDD variable order, so callers should declare interacting
  /// variables (e.g. chain neighbors) consecutively.
  VarId add_variable(std::string name, std::uint32_t domain);

  [[nodiscard]] const VariableInfo& info(VarId v) const { return vars_.at(v); }
  [[nodiscard]] std::size_t variable_count() const noexcept {
    return vars_.size();
  }
  /// Boolean variables per state copy.
  [[nodiscard]] std::uint32_t bits_per_state() const noexcept {
    return bits_per_state_;
  }
  /// Looks a variable up by name (nullopt when absent).
  [[nodiscard]] std::optional<VarId> find(const std::string& name) const;

  /// Total number of syntactically valid states (product of domains).
  [[nodiscard]] double state_space_size() const;

  // --- Predicate constructors ----------------------------------------------

  [[nodiscard]] bdd::Bdd bdd_true() { return mgr_.bdd_true(); }
  [[nodiscard]] bdd::Bdd bdd_false() { return mgr_.bdd_false(); }

  /// v == value (in the given state copy).
  [[nodiscard]] bdd::Bdd value_eq(VarId v, std::uint32_t value, Version ver);

  /// v < value (unsigned comparison against a constant).
  [[nodiscard]] bdd::Bdd value_lt(VarId v, std::uint32_t value, Version ver);

  /// a (in version va) == b (in version vb); domains may differ, equality
  /// is on the integer value.
  [[nodiscard]] bdd::Bdd vars_eq(VarId a, Version va, VarId b, Version vb);

  /// Transition predicate "v keeps its value": v' == v.
  [[nodiscard]] bdd::Bdd unchanged(VarId v);

  /// Conjunction of unchanged(v) over the given variables, built deepest
  /// level first so that each AND only walks the new conjunct.
  [[nodiscard]] bdd::Bdd unchanged(std::span<const VarId> vs);

  /// The identity transition relation (every variable unchanged).
  [[nodiscard]] bdd::Bdd identity();

  /// Conjunction of the domain constraints of all variables in one copy
  /// (true when every domain is a power of two).
  [[nodiscard]] bdd::Bdd valid(Version ver);

  /// valid(kCurrent) ∧ valid(kNext).
  [[nodiscard]] bdd::Bdd valid_pair();

  // --- Cubes and renaming ------------------------------------------------------

  /// Cube of every bit of one state copy (for image/preimage).
  [[nodiscard]] bdd::Bdd cube(Version ver);

  /// Cube of the bits of the given variables in one copy.
  [[nodiscard]] bdd::Bdd cube_of(std::span<const VarId> vs, Version ver);

  /// Cube of the bits of the given variables in both copies.
  [[nodiscard]] bdd::Bdd cube_pair_of(std::span<const VarId> vs);

  /// Renames current bits to next bits. `state` must only depend on
  /// current bits.
  [[nodiscard]] bdd::Bdd prime(const bdd::Bdd& state);

  /// Renames next bits to current bits. `state` must only depend on next
  /// bits.
  [[nodiscard]] bdd::Bdd unprime(const bdd::Bdd& state);

  // --- Relational operations ------------------------------------------------------
  //
  // A transition relation is a disjunctive list of parts, one BDD each (a
  // process delta, a fault action, ...). Every operation below works on the
  // union of the parts without building it; a single BDD is a one-element
  // span, and a one-part call runs exactly the ops of the formula over that
  // BDD.

  /// States reachable from `from` in exactly one step (a current-version
  /// state predicate): the union over parts of ∃cur. (part ∧ from).
  [[nodiscard]] bdd::Bdd image(std::span<const bdd::Bdd> parts,
                               const bdd::Bdd& from);

  /// States with at least one successor inside `to`: the union over parts
  /// of ∃next. (part ∧ to′).
  [[nodiscard]] bdd::Bdd preimage(std::span<const bdd::Bdd> parts,
                                  const bdd::Bdd& to);

  /// Least fixpoint of `from ∪ image(parts, ·)` (forward reachability),
  /// computed by chaotic iteration: each part is saturated in turn until a
  /// global fixpoint. Avoids the frontier blow-up of breadth-first search
  /// on loosely-coupled relations (havoc-style fault structures).
  [[nodiscard]] bdd::Bdd forward_reachable(std::span<const bdd::Bdd> parts,
                                           const bdd::Bdd& from);

  /// States of `set` that have at least one successor within `set`
  /// — i.e. set ∩ preimage(parts, set). One step of live_core.
  [[nodiscard]] bdd::Bdd has_successor_in(std::span<const bdd::Bdd> parts,
                                          const bdd::Bdd& set);

  /// The νZ. states ∩ pre(parts, Z): the largest subset of `states` in
  /// which every state has a successor inside the subset. Over a region
  /// that must be left (outside an invariant) it is the set of states that
  /// can stay in the region forever; over a reachable span it is the part
  /// that never deadlocks. `iterations`, when given, is increased by the
  /// number of has_successor_in steps taken, the last one included.
  /// `peeled`, when given, receives the states each shrinking step
  /// removes, in order (the ranks of a livelock certificate).
  [[nodiscard]] bdd::Bdd live_core(std::span<const bdd::Bdd> parts,
                                   bdd::Bdd states,
                                   std::uint64_t* iterations = nullptr,
                                   std::vector<bdd::Bdd>* peeled = nullptr);

  // --- Counting and enumeration -----------------------------------------------------

  /// Number of valid states in a state predicate.
  [[nodiscard]] double count_states(const bdd::Bdd& set);

  /// Number of valid (s, s') pairs in a transition predicate.
  [[nodiscard]] double count_transitions(const bdd::Bdd& rel);

  /// Calls fn with the variable values of every valid state in `set`
  /// (exponential; small spaces only).
  void foreach_state(const bdd::Bdd& set,
                     const std::function<void(std::span<const std::uint32_t>)>& fn);

  /// Calls fn(from_values, to_values) for every valid transition in `rel`.
  void foreach_transition(
      const bdd::Bdd& rel,
      const std::function<void(std::span<const std::uint32_t>,
                               std::span<const std::uint32_t>)>& fn);

  /// The minterm of one concrete state (values listed per variable).
  [[nodiscard]] bdd::Bdd state(std::span<const std::uint32_t> values,
                               Version ver = Version::kCurrent);

  /// The minterm of one concrete transition.
  [[nodiscard]] bdd::Bdd transition(std::span<const std::uint32_t> from,
                                    std::span<const std::uint32_t> to);

  /// Human-readable "name=value, ..." rendering of a concrete state.
  [[nodiscard]] std::string state_to_string(
      std::span<const std::uint32_t> values) const;

  /// One concrete valid state of `set` (nullopt when empty), decoded to
  /// per-variable values. Deterministic: bdd::sat_one path, don't-care
  /// bits fixed to 0 — the journal's witness-state extractor.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> witness_state(
      const bdd::Bdd& set);

  /// One concrete valid (from, to) transition of `rel` (nullopt when
  /// empty), decoded like witness_state.
  [[nodiscard]] std::optional<
      std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>>
  witness_transition(const bdd::Bdd& rel);

  /// The underlying BDD manager (tests, statistics).
  [[nodiscard]] bdd::Manager& manager() noexcept { return mgr_; }

 private:
  void freeze();
  /// `vs` sorted deepest first, that is by VarId descending (the order the
  /// frame conjunctions are built in).
  [[nodiscard]] std::vector<VarId> deepest_first(
      std::span<const VarId> vs) const;
  [[nodiscard]] const std::vector<bdd::VarIndex>& bits_of(VarId v,
                                                          Version ver) const {
    return ver == Version::kCurrent ? vars_[v].cur_bits : vars_[v].next_bits;
  }

  bdd::Manager mgr_;
  std::vector<VariableInfo> vars_;
  std::uint32_t bits_per_state_ = 0;
  bool frozen_ = false;

  // Lazily built after freeze().
  bdd::Bdd cube_cur_;
  bdd::Bdd cube_next_;
  bdd::Bdd valid_cur_;
  bdd::Bdd valid_next_;
  bdd::Bdd valid_pair_;
  bdd::Bdd identity_;
  std::optional<bdd::PermId> swap_perm_;
};

}  // namespace lr::sym
