#include "repair/journal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/fs.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace lr::repair {

namespace {

/// Narrative rendering of a count: integers print bare, large or
/// fractional values fall back to the state-count formatter.
std::string fmt_count(double value) {
  if (std::nearbyint(value) == value && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  return support::format_state_count(value);
}

std::string values_object(const std::vector<std::string>& names,
                          const std::vector<std::uint32_t>& values) {
  std::string out = "{";
  for (std::size_t v = 0; v < values.size(); ++v) {
    if (v > 0) out += ",";
    const std::string name =
        v < names.size() ? names[v] : "v" + std::to_string(v);
    out += support::json_quote(name) + ":" + std::to_string(values[v]);
  }
  out += "}";
  return out;
}

}  // namespace

void Journal::begin_run(prog::DistributedProgram& program,
                        std::string_view algorithm, std::string_view level) {
  space_ = &program.space();
  var_names_.clear();
  for (sym::VarId v = 0; v < space_->variable_count(); ++v) {
    var_names_.push_back(space_->info(v).name);
  }
  proc_names_.clear();
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    proc_names_.push_back(program.process(j).name);
  }
  events_.clear();
  seq_ = 0;
  round_.reset();
  algorithm_ = algorithm;
  level_ = level;
}

void Journal::meta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

JournalEvent& Journal::push(std::string kind) {
  JournalEvent event;
  event.kind = std::move(kind);
  event.num["seq"] = static_cast<double>(seq_++);
  if (round_) event.num["round"] = static_cast<double>(*round_);
  events_.push_back(std::move(event));
  return events_.back();
}

void Journal::attach_state_witness(JournalEvent& event, const bdd::Bdd& set) {
  if (space_ == nullptr) return;
  if (auto state = space_->witness_state(set)) {
    event.witness = JournalWitness{std::move(*state), {}};
  }
}

void Journal::attach_transition_witness(JournalEvent& event,
                                        const bdd::Bdd& pruned) {
  if (space_ == nullptr) return;
  if (auto trans = space_->witness_transition(pruned)) {
    event.witness = JournalWitness{std::move(trans->first),
                                   std::move(trans->second)};
  }
}

void Journal::round_start(std::size_t round) {
  round_ = round;
  push("round_start");
}

void Journal::fixpoint_round(std::string_view phase, std::size_t iteration,
                             double invariant_states, double span_states) {
  JournalEvent& event = push("fixpoint_round");
  event.text["phase"] = std::string(phase);
  event.num["iteration"] = static_cast<double>(iteration);
  event.num["invariant_states"] = invariant_states;
  event.num["span_states"] = span_states;
}

void Journal::recovery_layer(std::size_t layer, double layer_states,
                             const bdd::Bdd& added) {
  JournalEvent& event = push("recovery_layer");
  event.num["layer"] = static_cast<double>(layer);
  event.num["states"] = layer_states;
  if (space_ != nullptr) {
    event.num["trans"] = space_->count_transitions(added);
  }
  event.num["nodes"] = static_cast<double>(added.node_count());
}

void Journal::step_one_summary(double invariant_states, double span_states,
                               std::size_t fixpoint_rounds,
                               std::size_t recovery_layers) {
  JournalEvent& event = push("step1");
  event.num["invariant_states"] = invariant_states;
  event.num["span_states"] = span_states;
  event.num["fixpoint_rounds"] = static_cast<double>(fixpoint_rounds);
  event.num["recovery_layers"] = static_cast<double>(recovery_layers);
}

void Journal::group_accepted(std::string_view phase, std::size_t process,
                             const bdd::Bdd& group) {
  JournalEvent& event = push("group");
  event.text["phase"] = std::string(phase);
  event.text["decision"] = "accepted";
  event.num["process"] = static_cast<double>(process);
  if (space_ != nullptr) event.num["trans"] = space_->count_transitions(group);
  event.num["nodes"] = static_cast<double>(group.node_count());
}

void Journal::prune(std::string_view phase, std::string_view reason,
                    std::size_t process, const bdd::Bdd& pre,
                    const bdd::Bdd& post) {
  const bdd::Bdd pruned = post.valid() ? pre.minus(post) : pre;
  if (pruned.is_false()) return;
  JournalEvent& event = push("prune");
  event.text["phase"] = std::string(phase);
  event.text["reason"] = std::string(reason);
  event.num["process"] = static_cast<double>(process);
  if (space_ != nullptr) event.num["trans"] = space_->count_transitions(pruned);
  event.num["nodes"] = static_cast<double>(pruned.node_count());
  event.pre = pre;
  event.post = post;
  attach_transition_witness(event, pruned);
}

void Journal::deadlock_round(const bdd::Bdd& deadlocks,
                             std::size_t ban_trans_nodes) {
  JournalEvent& event = push("deadlock_round");
  if (space_ != nullptr) event.num["states"] = space_->count_states(deadlocks);
  event.num["ban_nodes"] = static_cast<double>(ban_trans_nodes);
  event.pre = deadlocks;
  attach_state_witness(event, deadlocks);
}

void Journal::refine(double reachable_states) {
  JournalEvent& event = push("refine");
  event.num["reachable_states"] = reachable_states;
}

void Journal::run_end(bool success, std::string_view reason) {
  JournalEvent& event = push("run_end");
  event.num["success"] = success ? 1.0 : 0.0;
  if (!reason.empty()) event.text["reason"] = std::string(reason);
}

std::string Journal::to_jsonl() const {
  std::string out = "{\"schema\":" + std::to_string(kJournalSchemaVersion) +
                    ",\"event\":\"journal\",\"algorithm\":" +
                    support::json_quote(algorithm_) +
                    ",\"level\":" + support::json_quote(level_);
  for (const auto& [key, value] : meta_) {
    out += "," + support::json_quote(key) + ":" + support::json_quote(value);
  }
  out += ",\"variables\":[";
  for (std::size_t v = 0; v < var_names_.size(); ++v) {
    if (v > 0) out += ",";
    out += support::json_quote(var_names_[v]);
  }
  out += "]}\n";
  for (const JournalEvent& event : events_) {
    out += "{\"event\":" + support::json_quote(event.kind);
    for (const auto& [key, value] : event.text) {
      out += "," + support::json_quote(key) + ":" + support::json_quote(value);
    }
    for (const auto& [key, value] : event.num) {
      out += "," + support::json_quote(key) + ":" + support::json_number(value);
    }
    if (event.witness) {
      out += ",\"witness\":{\"from\":" +
             values_object(var_names_, event.witness->from);
      if (!event.witness->to.empty()) {
        out += ",\"to\":" + values_object(var_names_, event.witness->to);
      }
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

bool Journal::save(const std::string& path) const {
  return support::write_file_atomic(path, to_jsonl());
}

namespace {

/// "x0=1, x1=0" — describe_process_program's guard naming.
std::string render_state(const std::vector<std::string>& names,
                         const std::vector<std::uint32_t>& values) {
  std::string out;
  for (std::size_t v = 0; v < values.size(); ++v) {
    if (v > 0) out += ", ";
    const std::string name =
        v < names.size() ? names[v] : "v" + std::to_string(v);
    out += name + "=" + std::to_string(values[v]);
  }
  return out;
}

/// "x0=1, x1=0 --> x1:=1" — guard plus the changed-variable updates, the
/// guarded-command shape describe_process_program prints.
std::string render_witness(const std::vector<std::string>& names,
                           const JournalWitness& witness) {
  std::string out = render_state(names, witness.from);
  if (witness.to.empty()) return out;
  std::string updates;
  for (std::size_t v = 0; v < witness.to.size(); ++v) {
    if (v < witness.from.size() && witness.to[v] == witness.from[v]) continue;
    if (!updates.empty()) updates += ", ";
    const std::string name =
        v < names.size() ? names[v] : "v" + std::to_string(v);
    updates += name + ":=" + std::to_string(witness.to[v]);
  }
  out += " --> " + (updates.empty() ? std::string("(stutter)") : updates);
  return out;
}

}  // namespace

std::vector<std::string> describe_journal(const Journal& journal) {
  std::vector<std::string> lines;
  const std::vector<std::string>& names = journal.variable_names();
  const std::vector<std::string>& procs = journal.process_names();

  const auto process_name = [&procs](double index) {
    const auto j = static_cast<std::size_t>(index);
    return j < procs.size() ? procs[j] : "p" + std::to_string(j);
  };
  const auto num = [](const JournalEvent& event, const char* key) {
    const auto it = event.num.find(key);
    return it == event.num.end() ? 0.0 : it->second;
  };
  const auto text = [](const JournalEvent& event, const char* key) {
    const auto it = event.text.find(key);
    return it == event.text.end() ? std::string() : it->second;
  };

  lines.push_back("repair journal: algorithm " + journal.algorithm() +
                  ", level " + journal.level());
  for (const JournalEvent& event : journal.events()) {
    if (event.kind == "group") {
      lines.push_back("  " + text(event, "phase") + " process " +
                      process_name(num(event, "process")) + ": accepted " +
                      fmt_count(num(event, "trans")) + " transitions");
    } else if (event.kind == "round_start") {
      lines.push_back("round " + fmt_count(num(event, "round")) + ":");
    } else if (event.kind == "fixpoint_round") {
      lines.push_back("  " + text(event, "phase") + " iteration " +
                      fmt_count(num(event, "iteration")) + ": |S1| = " +
                      fmt_count(num(event, "invariant_states")) +
                      " states, |T1| = " +
                      fmt_count(num(event, "span_states")) + " states");
    } else if (event.kind == "recovery_layer") {
      lines.push_back("  recovery layer " + fmt_count(num(event, "layer")) +
                      ": " + fmt_count(num(event, "states")) + " states, " +
                      fmt_count(num(event, "trans")) + " transitions added");
    } else if (event.kind == "step1") {
      lines.push_back(
          "  step 1: |S'| = " + fmt_count(num(event, "invariant_states")) +
          " states, |T'| = " + fmt_count(num(event, "span_states")) +
          " states (" + fmt_count(num(event, "fixpoint_rounds")) +
          " fixpoint rounds, " + fmt_count(num(event, "recovery_layers")) +
          " recovery layers)");
    } else if (event.kind == "prune") {
      std::string line = "  pruned (" + text(event, "reason") + ") process " +
                         process_name(num(event, "process")) + ": " +
                         fmt_count(num(event, "trans")) + " transitions";
      lines.push_back(std::move(line));
      if (event.witness) {
        lines.push_back("    e.g. pruned transition: " +
                        render_witness(names, *event.witness));
      }
    } else if (event.kind == "deadlock_round") {
      lines.push_back("  deadlock: " + fmt_count(num(event, "states")) +
                      " states banned (ban relation " +
                      fmt_count(num(event, "ban_nodes")) + " nodes)");
      if (event.witness) {
        lines.push_back("    e.g. deadlocked state: " +
                        render_state(names, event.witness->from));
      }
    } else if (event.kind == "refine") {
      lines.push_back("  refine: reachability reference tightened to " +
                      fmt_count(num(event, "reachable_states")) + " states");
    } else if (event.kind == "run_end") {
      const std::string reason = text(event, "reason");
      lines.push_back("result: " + std::string(num(event, "success") != 0.0
                                                   ? "success"
                                                   : "failed") +
                      (reason.empty() ? "" : " (" + reason + ")"));
    }
  }
  return lines;
}

}  // namespace lr::repair
