#include "lang/action.hpp"

#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace lr::lang {

bdd::Bdd compile_action(sym::Space& space, const Action& a) {
  if (a.guard.empty()) {
    throw std::invalid_argument("compile_action: action '" + a.name +
                                "' has an empty guard");
  }
  Compiler compiler(space);
  bdd::Bdd t = compiler.compile_bool(a.guard);

  std::unordered_set<sym::VarId> touched;
  for (const Assignment& assign : a.assigns) {
    if (!touched.insert(assign.var).second) {
      throw std::invalid_argument("compile_action: variable assigned twice in '" +
                                  a.name + "'");
    }
    if (assign.alternatives.empty()) {
      throw std::invalid_argument(
          "compile_action: assignment with no alternatives in '" + a.name +
          "'");
    }
    bdd::Bdd alt = space.bdd_false();
    for (const Expr& e : assign.alternatives) {
      alt |= compiler.compile_bool(Expr::next(assign.var) == e);
    }
    t &= alt;
  }
  for (const sym::VarId v : a.havoc) {
    if (!touched.insert(v).second) {
      throw std::invalid_argument(
          "compile_action: variable both assigned and havoced in '" + a.name +
          "'");
    }
    // No constraint: the next value is arbitrary within the domain (the
    // domain bound comes from valid_pair below).
  }
  // Frame rule: everything not written keeps its value (one frame,
  // built deepest-first by Space::unchanged).
  std::vector<sym::VarId> untouched;
  for (sym::VarId v = 0; v < space.variable_count(); ++v) {
    if (touched.count(v) == 0) untouched.push_back(v);
  }
  t &= space.unchanged(untouched);
  // Keep both endpoints inside the valid encodings of every domain.
  t &= space.valid_pair();
  return t;
}

bdd::Bdd compile_actions(sym::Space& space, std::span<const Action> actions) {
  bdd::Bdd result = space.bdd_false();
  for (const Action& a : actions) result |= compile_action(space, a);
  return result;
}

}  // namespace lr::lang
