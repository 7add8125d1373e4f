#include "repair/export.hpp"

#include <charconv>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "repair/describe.hpp"
#include "support/fs.hpp"

namespace lr::repair {

namespace {

/// Values of `info`'s domain whose binary encoding is consistent with the
/// cube's (possibly partial) bit assignment in the given copy.
std::vector<std::uint32_t> matching_values(const sym::VariableInfo& info,
                                           std::span<const signed char> cube,
                                           bool next_copy) {
  const auto& bits = next_copy ? info.next_bits : info.cur_bits;
  std::vector<std::uint32_t> values;
  for (std::uint32_t v = 0; v < info.domain; ++v) {
    bool consistent = true;
    for (std::uint32_t k = 0; k < info.bits; ++k) {
      const signed char b = cube[bits[k]];
      if (b >= 0 && static_cast<std::uint32_t>(b) != ((v >> k) & 1u)) {
        consistent = false;
        break;
      }
    }
    if (consistent) values.push_back(v);
  }
  return values;
}

/// "v == a" or "(v == a || v == b)" for a subset of the domain; empty when
/// every value matches (no constraint).
std::string guard_term(const std::string& name,
                       const std::vector<std::uint32_t>& values,
                       std::uint32_t domain) {
  if (values.size() == domain) return "";
  std::string term;
  for (const std::uint32_t v : values) {
    if (!term.empty()) term += " || ";
    term += name + " == " + std::to_string(v);
  }
  return values.size() == 1 ? term : "(" + term + ")";
}

/// "w := v" or "w := {a, b}"; nullopt when no value matches (an
/// inconsistent encoding: the cube is skipped).
std::optional<std::string> update_term(
    const std::string& name, const std::vector<std::uint32_t>& values) {
  if (values.empty()) return std::nullopt;
  std::string term = name + " := ";
  if (values.size() == 1) return term + std::to_string(values.front());
  term += "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) term += ", ";
    term += std::to_string(values[i]);
  }
  return term + "}";
}

/// The lexer's identifier alphabet excludes '-' (it is subtraction);
/// generated names (case studies use hyphens) are sanitized on export.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

/// The finished term of one variable copy in one cube, memoized by the
/// cube's partial assignment of that variable's bits, packed 2 bits per
/// BDD bit (0 = don't care, 1 = false, 2 = true). Entries are made on
/// demand, so a wide domain costs only the assignments its cubes use.
class TermTable {
 public:
  TermTable(const sym::VariableInfo& info, bool next_copy)
      : info_(&info), next_copy_(next_copy) {}

  /// Guard term of the current copy ("" = unconstrained), or update term
  /// of the next copy (nullopt = inconsistent encoding).
  const std::optional<std::string>& lookup(std::span<const signed char> cube) {
    const auto& bits = next_copy_ ? info_->next_bits : info_->cur_bits;
    std::uint64_t key = 0;
    for (std::uint32_t k = 0; k < info_->bits; ++k) {
      key |= static_cast<std::uint64_t>(cube[bits[k]] + 1) << (2 * k);
    }
    const auto [it, inserted] = terms_.try_emplace(key);
    if (inserted) it->second = make(cube);
    return it->second;
  }

 private:
  std::optional<std::string> make(std::span<const signed char> cube) const {
    const auto values = matching_values(*info_, cube, next_copy_);
    if (next_copy_) return update_term(info_->name, values);
    return guard_term(info_->name, values, info_->domain);
  }

  const sym::VariableInfo* info_;
  bool next_copy_;
  std::unordered_map<std::uint64_t, std::optional<std::string>> terms_;
};

/// The export text as a walk that hands each piece to a sink (any callable
/// taking std::string_view). Every cover (each process's and S′'s) is
/// computed once, in the constructor; render() may then run any number of
/// times and emits the same bytes each time, so export_model can measure
/// the text in one walk and write it into an exact-size buffer in a second.
class Renderer {
 public:
  Renderer(prog::DistributedProgram& program, const RepairResult& result)
      : program_(program), space_(program.space()) {
    // Exact on the fault span; the j-views with no state in it are
    // don't-cares, since no computation from the exported invariant S′
    // leaves the span. Each cover is computed once and walked by every
    // render().
    bdd::Manager& mgr = space_.manager();
    for (std::size_t j = 0; j < program.process_count(); ++j) {
      const ProcessCover bounds = process_cover(
          program, j, result.process_deltas[j], result.fault_span);
      covers_.push_back(mgr.isop(bounds.lower, bounds.upper));
    }
    // S′ itself, with the invalid encodings (which the parser excludes
    // again) as don't-cares.
    invariant_ = mgr.isop(result.invariant,
                          result.invariant |
                              ~space_.valid(sym::Version::kCurrent));
    for (sym::VarId v = 0; v < space_.variable_count(); ++v) {
      guards_.emplace_back(space_.info(v), false);
      updates_.emplace_back(space_.info(v), true);
    }
  }

  template <typename Sink>
  void render(Sink&& sink) {
    sink("// Synthesized by lazyrepair: masking fault-tolerant version of '");
    sink(program_.name());
    sink("'.\nprogram ");
    sink(sanitize(program_.name()));
    sink(";\n\n");
    for (sym::VarId v = 0; v < space_.variable_count(); ++v) {
      const auto& info = space_.info(v);
      sink("var ");
      sink(info.name);
      sink(" : 0..");
      put_number(sink, info.domain - 1);
      sink(";\n");
    }

    for (std::size_t j = 0; j < program_.process_count(); ++j) {
      render_process(sink, j);
    }

    sink("\n");
    for (const lang::Action& fault : program_.fault_actions()) {
      sink("fault ");
      render_action(sink, fault);
      sink("\n");
    }
    sink("\ninvariant ");
    render_invariant(sink);
    sink(";\n");
    for (const lang::Expr& e : program_.bad_state_expressions()) {
      sink("bad_state ");
      sink(e.to_string(space_));
      sink(";\n");
    }
    for (const lang::Expr& e : program_.bad_transition_expressions()) {
      sink("bad_transition ");
      sink(e.to_string(space_));
      sink(";\n");
    }
  }

 private:
  template <typename Sink>
  static void put_number(Sink& sink, std::uint64_t value) {
    char digits[20];
    const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    sink(std::string_view(digits, static_cast<std::size_t>(end - digits)));
  }

  template <typename Sink>
  void put_names(Sink& sink, const std::vector<sym::VarId>& vars) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (i > 0) sink(", ");
      sink(space_.info(vars[i]).name);
    }
  }

  template <typename Sink>
  void render_process(Sink& sink, std::size_t j) {
    const prog::Process& proc = program_.process(j);
    sink("\nprocess ");
    sink(sanitize(proc.name));
    sink(" {\n  reads ");
    put_names(sink, proc.reads);
    sink(";\n  writes ");
    put_names(sink, proc.writes);
    sink(";\n");

    // Skipped cubes (no valid written value, no writes) take no number.
    std::size_t counter = 0;
    std::vector<const std::string*> cube_updates;
    covers_[j].foreach_cube([&](std::span<const signed char> cube) {
      cube_updates.clear();
      for (const sym::VarId w : proc.writes) {
        const std::optional<std::string>& term = updates_[w].lookup(cube);
        if (!term) return;
        cube_updates.push_back(&*term);
      }
      if (cube_updates.empty()) return;
      sink("  action a");
      put_number(sink, counter++);
      sink(": ");
      bool guarded = false;
      for (const sym::VarId r : proc.reads) {
        const std::string& term = *guards_[r].lookup(cube);
        if (term.empty()) continue;
        if (guarded) sink(" && ");
        sink(term);
        guarded = true;
      }
      if (!guarded) sink("true");
      sink(" -> ");
      for (std::size_t i = 0; i < cube_updates.size(); ++i) {
        if (i > 0) sink(", ");
        sink(*cube_updates[i]);
      }
      sink(";\n");
    });
    sink("}\n");
  }

  /// S′ as a disjunction of its cover's cubes, each the conjunction of its
  /// guard terms.
  template <typename Sink>
  void render_invariant(Sink& sink) {
    bool first_cube = true;
    std::vector<const std::string*> terms;
    invariant_.foreach_cube([&](std::span<const signed char> cube) {
      terms.clear();
      for (sym::VarId v = 0; v < space_.variable_count(); ++v) {
        const std::string& term = *guards_[v].lookup(cube);
        if (!term.empty()) terms.push_back(&term);
      }
      if (!first_cube) sink(" || ");
      first_cube = false;
      if (terms.empty()) sink("true");
      if (terms.size() > 1) sink("(");
      for (std::size_t i = 0; i < terms.size(); ++i) {
        if (i > 0) sink(" && ");
        sink(*terms[i]);
      }
      if (terms.size() > 1) sink(")");
    });
    if (first_cube) sink("false");
  }

  template <typename Sink>
  void render_action(Sink& sink, const lang::Action& action) {
    sink(sanitize(action.name));
    sink(": ");
    sink(action.guard.to_string(space_));
    sink(" -> ");
    bool first = true;
    for (const auto& assign : action.assigns) {
      if (!first) sink(", ");
      first = false;
      sink(space_.info(assign.var).name);
      sink(" := ");
      if (assign.alternatives.size() == 1) {
        sink(assign.alternatives.front().to_string(space_));
      } else {
        sink("{");
        for (std::size_t i = 0; i < assign.alternatives.size(); ++i) {
          if (i > 0) sink(", ");
          sink(assign.alternatives[i].to_string(space_));
        }
        sink("}");
      }
    }
    for (const sym::VarId v : action.havoc) {
      if (!first) sink(", ");
      first = false;
      sink("havoc ");
      sink(space_.info(v).name);
    }
    sink(";");
  }

  const prog::DistributedProgram& program_;
  sym::Space& space_;
  std::vector<bdd::IsopCover> covers_;
  bdd::IsopCover invariant_;
  std::vector<TermTable> guards_;   ///< per variable, current copy
  std::vector<TermTable> updates_;  ///< per variable, next copy
};

}  // namespace

std::string export_model(prog::DistributedProgram& program,
                         const RepairResult& result) {
  Renderer renderer(program, result);
  std::size_t bytes = 0;
  renderer.render([&bytes](std::string_view piece) { bytes += piece.size(); });
  std::string text;
  text.reserve(bytes);
  renderer.render([&text](std::string_view piece) { text.append(piece); });
  // The walks must agree, or the reserve above was wrong.
  if (text.size() != bytes) {
    throw std::logic_error("export_model: measured " + std::to_string(bytes) +
                           " bytes but rendered " +
                           std::to_string(text.size()));
  }
  return text;
}

bool export_model_file(prog::DistributedProgram& program,
                       const RepairResult& result, const std::string& path) {
  Renderer renderer(program, result);
  return support::write_file_atomic(path, [&renderer](std::ostream& out) {
    renderer.render([&out](std::string_view piece) {
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    });
  });
}

}  // namespace lr::repair
