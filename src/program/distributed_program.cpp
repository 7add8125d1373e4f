#include "program/distributed_program.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "support/trace.hpp"

namespace lr::prog {

namespace {

/// The union of `parts` as a balanced tree of ORs: each OR joins two
/// unions of about the same size, where a left fold would re-walk the
/// growing union once per part.
bdd::Bdd balanced_union(sym::Space& space, std::span<const bdd::Bdd> parts) {
  if (parts.empty()) return space.bdd_false();
  if (parts.size() == 1) return parts.front();
  const std::size_t half = parts.size() / 2;
  return balanced_union(space, parts.first(half)) |
         balanced_union(space, parts.subspan(half));
}

}  // namespace

DistributedProgram::DistributedProgram(std::string name,
                                       bdd::Manager::Options options)
    : name_(std::move(name)), space_(options) {}

void DistributedProgram::require_mutable(const char* what) const {
  if (compiled_) {
    throw std::logic_error(std::string("DistributedProgram::") + what +
                           ": program is frozen (an accessor was called)");
  }
}

sym::VarId DistributedProgram::add_variable(const std::string& var_name,
                                            std::uint32_t domain) {
  require_mutable("add_variable");
  return space_.add_variable(var_name, domain);
}

std::size_t DistributedProgram::add_process(Process process) {
  require_mutable("add_process");
  // W_j ⊆ R_j (Definition 17).
  for (const sym::VarId w : process.writes) {
    if (std::find(process.reads.begin(), process.reads.end(), w) ==
        process.reads.end()) {
      throw std::invalid_argument("add_process: process '" + process.name +
                                  "' writes a variable it cannot read");
    }
  }
  processes_.push_back(std::move(process));
  return processes_.size() - 1;
}

void DistributedProgram::add_fault(lang::Action fault) {
  require_mutable("add_fault");
  faults_.push_back(std::move(fault));
}

void DistributedProgram::set_invariant(const lang::Expr& predicate) {
  require_mutable("set_invariant");
  invariant_expr_ = predicate;
}

void DistributedProgram::add_bad_states(const lang::Expr& predicate) {
  require_mutable("add_bad_states");
  bad_state_exprs_.push_back(predicate);
}

void DistributedProgram::add_bad_transitions(const lang::Expr& predicate) {
  require_mutable("add_bad_transitions");
  bad_trans_exprs_.push_back(predicate);
}

void DistributedProgram::compile() {
  if (compiled_) return;
  compiled_ = true;
  LR_TRACE_SPAN("program.compile");

  const bdd::Bdd valid_pair = space_.valid_pair();
  const bdd::Bdd identity = space_.identity();

  // Per-process transition predicates. Proper transitions only: the
  // stuttering rule of Definition 18 covers self-loops, and the paper's
  // read-restriction groups are defined over state-changing transitions.
  process_deltas_.reserve(processes_.size());
  for (const Process& p : processes_) {
    process_deltas_.push_back(
        lang::compile_actions(space_, p.actions).minus(identity));
  }
  actions_delta_ = balanced_union(space_, process_deltas_);
  program_delta_ = stutter_completion(actions_delta_);

  fault_action_deltas_.reserve(faults_.size());
  for (const lang::Action& fault : faults_) {
    fault_action_deltas_.push_back(
        lang::compile_action(space_, fault).minus(identity));
  }
  fault_delta_ = balanced_union(space_, fault_action_deltas_);

  lang::Compiler compiler(space_);
  if (!invariant_expr_.has_value()) {
    throw std::logic_error("DistributedProgram: no invariant was set");
  }
  invariant_bdd_ =
      compiler.compile_bool(*invariant_expr_) & space_.valid(sym::Version::kCurrent);

  safety_.bad_states = space_.bdd_false();
  for (const lang::Expr& e : bad_state_exprs_) {
    safety_.bad_states |= compiler.compile_bool(e);
  }
  safety_.bad_states &= space_.valid(sym::Version::kCurrent);
  safety_.bad_trans = space_.bdd_false();
  for (const lang::Expr& e : bad_trans_exprs_) {
    safety_.bad_trans |= compiler.compile_bool(e);
  }
  safety_.bad_trans &= valid_pair;

  // Realizability helpers per process.
  respects_write_.reserve(processes_.size());
  same_unreadable_.reserve(processes_.size());
  unreadable_cubes_.reserve(processes_.size());
  for (const Process& p : processes_) {
    std::unordered_set<sym::VarId> reads(p.reads.begin(), p.reads.end());
    std::unordered_set<sym::VarId> writes(p.writes.begin(), p.writes.end());
    std::vector<sym::VarId> not_written;
    std::vector<sym::VarId> not_read;
    for (sym::VarId v = 0; v < space_.variable_count(); ++v) {
      if (writes.count(v) == 0) not_written.push_back(v);
      if (reads.count(v) == 0) not_read.push_back(v);
    }
    respects_write_.push_back(space_.unchanged(not_written));
    same_unreadable_.push_back(space_.unchanged(not_read));
    unreadable_cubes_.push_back(space_.cube_pair_of(not_read));
  }
}

const bdd::Bdd& DistributedProgram::process_delta(std::size_t j) {
  compile();
  return process_deltas_.at(j);
}

const bdd::Bdd& DistributedProgram::actions_delta() {
  compile();
  return actions_delta_;
}

const bdd::Bdd& DistributedProgram::program_delta() {
  compile();
  return program_delta_;
}

const bdd::Bdd& DistributedProgram::fault_delta() {
  compile();
  return fault_delta_;
}

const std::vector<bdd::Bdd>& DistributedProgram::fault_action_deltas() {
  compile();
  return fault_action_deltas_;
}

const bdd::Bdd& DistributedProgram::invariant() {
  compile();
  return invariant_bdd_;
}

const SafetySpec& DistributedProgram::safety() {
  compile();
  return safety_;
}

const lang::Expr& DistributedProgram::invariant_expression() const {
  if (!invariant_expr_.has_value()) {
    throw std::logic_error("DistributedProgram: no invariant was set");
  }
  return *invariant_expr_;
}

bool DistributedProgram::writes_into(std::size_t k, std::size_t j) const {
  if (k == j) return false;
  const std::vector<sym::VarId>& reads = processes_.at(j).reads;
  const std::vector<sym::VarId>& writes = processes_.at(k).writes;
  return std::any_of(writes.begin(), writes.end(), [&reads](sym::VarId v) {
    return std::find(reads.begin(), reads.end(), v) != reads.end();
  });
}

std::optional<std::vector<std::size_t>> DistributedProgram::process_order()
    const {
  // Kahn's algorithm: a cycle leaves some process with a positive in-degree.
  const std::size_t processes = processes_.size();
  std::vector<std::vector<std::size_t>> successors(processes);
  std::vector<std::size_t> in_degree(processes, 0);
  for (std::size_t k = 0; k < processes; ++k) {
    for (std::size_t j = 0; j < processes; ++j) {
      if (writes_into(k, j)) {
        successors[k].push_back(j);
        ++in_degree[j];
      }
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t j = 0; j < processes; ++j) {
    if (in_degree[j] == 0) ready.push_back(j);
  }
  std::vector<std::size_t> order;
  order.reserve(processes);
  while (!ready.empty()) {
    const std::size_t k = ready.back();
    ready.pop_back();
    order.push_back(k);
    for (const std::size_t j : successors[k]) {
      if (--in_degree[j] == 0) ready.push_back(j);
    }
  }
  if (order.size() != processes) return std::nullopt;
  return order;
}

const bdd::Bdd& DistributedProgram::respects_write(std::size_t j) {
  compile();
  return respects_write_.at(j);
}

const bdd::Bdd& DistributedProgram::same_unreadable(std::size_t j) {
  compile();
  return same_unreadable_.at(j);
}

const bdd::Bdd& DistributedProgram::unreadable_cube(std::size_t j) {
  compile();
  return unreadable_cubes_.at(j);
}

bdd::Bdd DistributedProgram::group(std::size_t j, const bdd::Bdd& delta) {
  compile();
  LR_TRACE_SPAN("program.group");
  bdd::Manager& mgr = space_.manager();
  // Transitions that change an unreadable variable have an empty group, so
  // restrict first; then close over all *valid* values of the unreadable
  // variables, kept unchanged across the transition. (Without the validity
  // conjunct, non-power-of-two domains would contribute phantom members
  // with out-of-domain encodings.)
  const bdd::Bdd restricted = delta & same_unreadable_[j];
  return mgr.exists(restricted, unreadable_cubes_[j]) & same_unreadable_[j] &
         space_.valid_pair();
}

bdd::Bdd DistributedProgram::whole_groups_in(std::size_t j,
                                             const bdd::Bdd& delta) {
  compile();
  // A transition's group is contained in δ iff δ holds for every valid
  // value of the unreadable variables (held unchanged): one universal
  // quantification.
  const bdd::Bdd member_shape = same_unreadable_[j] & space_.valid_pair();
  return space_.manager().forall(member_shape.implies(delta),
                                 unreadable_cubes_[j]);
}

bdd::Bdd DistributedProgram::realizable_subset(std::size_t j,
                                               const bdd::Bdd& delta) {
  compile();
  LR_TRACE_SPAN("program.realizable_subset");
  const bdd::Bdd closed = whole_groups_in(j, delta);
  return delta & same_unreadable_[j] & space_.valid_pair() & closed;
}

bool DistributedProgram::realizable_by_process(std::size_t j,
                                               const bdd::Bdd& delta) {
  compile();
  if (!delta.leq(respects_write_[j])) return false;
  return group(j, delta) == delta;
}

std::optional<std::vector<bdd::Bdd>> DistributedProgram::realize_by_program(
    const bdd::Bdd& delta) {
  compile();
  // Maximal candidate decomposition: give every process everything it could
  // execute; δ is realizable iff the union reproduces δ exactly and each
  // part is group-closed (it is, by construction of realizable_subset).
  std::vector<bdd::Bdd> parts;
  parts.reserve(processes_.size());
  bdd::Bdd covered = space_.bdd_false();
  for (std::size_t j = 0; j < processes_.size(); ++j) {
    bdd::Bdd part = realizable_subset(j, delta & respects_write_[j]);
    covered |= part;
    parts.push_back(std::move(part));
  }
  if (covered == delta) return parts;
  return std::nullopt;
}

bdd::Bdd DistributedProgram::stutter_completion(const bdd::Bdd& delta) {
  compile();
  const bdd::Bdd enabled =
      space_.manager().exists(delta, space_.cube(sym::Version::kNext));
  const bdd::Bdd stuck =
      space_.valid(sym::Version::kCurrent).minus(enabled);
  return delta | (stuck & space_.identity());
}

const bdd::Bdd& DistributedProgram::reachable_under_faults() {
  compile();
  if (!reachable_.has_value()) {
    // One part per process delta and fault action: stutter steps add no
    // reachability and are omitted.
    std::vector<bdd::Bdd> parts = process_deltas_;
    parts.insert(parts.end(), fault_action_deltas_.begin(),
                 fault_action_deltas_.end());
    reachable_ = space_.forward_reachable(parts, invariant_bdd_);
  }
  return *reachable_;
}

}  // namespace lr::prog
