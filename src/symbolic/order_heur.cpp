#include "symbolic/order_heur.hpp"

#include <algorithm>
#include <stdexcept>

namespace lr::sym::order {

namespace {

/// Expands a program-variable order to the bit-level order, preserving the
/// per-variable current/next interleaving (b0, b0', b1, b1', ...).
std::vector<bdd::VarIndex> expand_bits(const Space& space,
                                       std::span<const VarId> var_order) {
  std::vector<bdd::VarIndex> out;
  out.reserve(2 * space.bits_per_state());
  for (const VarId v : var_order) {
    const VariableInfo& info = space.info(v);
    for (std::uint32_t k = 0; k < info.bits; ++k) {
      out.push_back(info.cur_bits[k]);
      out.push_back(info.next_bits[k]);
    }
  }
  return out;
}

std::vector<VarId> declaration_order(const Space& space) {
  std::vector<VarId> order(space.variable_count());
  for (VarId v = 0; v < order.size(); ++v) order[v] = v;
  return order;
}

/// Process locality: walk the processes in declaration order and place each
/// one's written variables, then its read variables, first-come-first-
/// placed. Ring/tree/star models declare their processes along the
/// topology, so neighbors land next to each other.
std::vector<VarId> interleave_order(const Space& space,
                                    const Structure& structure) {
  std::vector<VarId> order;
  order.reserve(space.variable_count());
  std::vector<bool> placed(space.variable_count(), false);
  const auto place = [&](VarId v) {
    if (v < placed.size() && !placed[v]) {
      placed[v] = true;
      order.push_back(v);
    }
  };
  for (const std::vector<VarId>& vars : structure.process_vars) {
    for (const VarId v : vars) place(v);
  }
  for (VarId v = 0; v < space.variable_count(); ++v) place(v);
  return order;
}

/// Weighted-adjacency greedy placement: build a co-occurrence graph over
/// the action support sets (each set contributes weight 1/(|A|-1) per pair,
/// so one hub action over n variables does not drown out tight pairwise
/// couplings), then grow the order from the heaviest variable by always
/// appending the unplaced variable most connected to the placed prefix.
/// All tie-breaks are deterministic (degree, then declaration order).
std::vector<VarId> adjacency_order(const Space& space,
                                   const Structure& structure) {
  const std::size_t n = space.variable_count();
  if (n == 0) return {};
  std::vector<double> weight(n * n, 0.0);
  for (const std::vector<VarId>& vars : structure.action_vars) {
    if (vars.size() < 2) continue;
    const double w = 1.0 / static_cast<double>(vars.size() - 1);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      for (std::size_t j = i + 1; j < vars.size(); ++j) {
        weight[vars[i] * n + vars[j]] += w;
        weight[vars[j] * n + vars[i]] += w;
      }
    }
  }
  std::vector<double> degree(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t u = 0; u < n; ++u) degree[v] += weight[v * n + u];
  }

  std::vector<VarId> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  std::vector<double> connection(n, 0.0);
  VarId start = 0;
  for (VarId v = 1; v < n; ++v) {
    if (degree[v] > degree[start]) start = v;
  }
  order.push_back(start);
  placed[start] = true;
  for (std::size_t v = 0; v < n; ++v) connection[v] = weight[v * n + start];

  while (order.size() < n) {
    VarId best = n;  // sentinel: no candidate yet
    for (VarId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      if (best == n || connection[v] > connection[best] ||
          (connection[v] == connection[best] &&
           (degree[v] > degree[best] ||
            (degree[v] == degree[best] && v < best)))) {
        best = v;
      }
    }
    order.push_back(best);
    placed[best] = true;
    for (std::size_t v = 0; v < n; ++v) connection[v] += weight[v * n + best];
  }
  return order;
}

Plan make_plan(const Space& space, const Structure& structure, Mode requested,
               Mode chosen, std::vector<VarId> var_order) {
  Plan plan;
  plan.requested = requested;
  plan.chosen = chosen;
  plan.var_order = std::move(var_order);
  plan.var_at_level = expand_bits(space, plan.var_order);
  plan.span_cost = span_cost(space, structure, plan.var_at_level);
  plan.decl_span_cost =
      span_cost(space, structure, expand_bits(space, declaration_order(space)));
  return plan;
}

}  // namespace

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::kDecl: return "decl";
    case Mode::kAuto: return "auto";
    case Mode::kInterleave: return "interleave";
    case Mode::kAdjacency: return "adjacency";
  }
  return "unknown";
}

std::optional<Mode> parse_mode(std::string_view name) noexcept {
  if (name == "decl") return Mode::kDecl;
  if (name == "auto") return Mode::kAuto;
  if (name == "interleave") return Mode::kInterleave;
  if (name == "adjacency") return Mode::kAdjacency;
  return std::nullopt;
}

std::vector<std::string> bit_labels(const Space& space) {
  std::vector<std::string> labels(2 * space.bits_per_state());
  for (VarId v = 0; v < space.variable_count(); ++v) {
    const VariableInfo& info = space.info(v);
    for (std::uint32_t k = 0; k < info.bits; ++k) {
      labels[info.cur_bits[k]] = info.name + "." + std::to_string(k);
      labels[info.next_bits[k]] = info.name + "." + std::to_string(k) + "'";
    }
  }
  return labels;
}

double span_cost(const Space& space, const Structure& structure,
                 std::span<const bdd::VarIndex> var_at_level) {
  std::vector<std::uint32_t> level_of(var_at_level.size());
  for (std::uint32_t level = 0; level < var_at_level.size(); ++level) {
    level_of[var_at_level[level]] = level;
  }
  double cost = 0.0;
  for (const std::vector<VarId>& vars : structure.action_vars) {
    if (vars.empty()) continue;
    std::uint32_t lo = static_cast<std::uint32_t>(var_at_level.size());
    std::uint32_t hi = 0;
    for (const VarId v : vars) {
      const VariableInfo& info = space.info(v);
      for (std::uint32_t k = 0; k < info.bits; ++k) {
        lo = std::min({lo, level_of[info.cur_bits[k]],
                       level_of[info.next_bits[k]]});
        hi = std::max({hi, level_of[info.cur_bits[k]],
                       level_of[info.next_bits[k]]});
      }
    }
    cost += static_cast<double>(hi - lo + 1);
  }
  return cost;
}

Plan plan_order(const Space& space, const Structure& structure, Mode mode) {
  switch (mode) {
    case Mode::kDecl:
      return make_plan(space, structure, mode, mode,
                       declaration_order(space));
    case Mode::kInterleave:
      return make_plan(space, structure, mode, mode,
                       interleave_order(space, structure));
    case Mode::kAdjacency:
      return make_plan(space, structure, mode, mode,
                       adjacency_order(space, structure));
    case Mode::kAuto: {
      // Score the candidates with the static proxy; declaration order wins
      // ties so `auto` never pays swap work without predicted benefit.
      Plan best = make_plan(space, structure, Mode::kAuto, Mode::kDecl,
                            declaration_order(space));
      for (const Mode candidate : {Mode::kInterleave, Mode::kAdjacency}) {
        Plan plan = plan_order(space, structure, candidate);
        if (plan.span_cost < best.span_cost) {
          plan.requested = Mode::kAuto;
          best = std::move(plan);
        }
      }
      return best;
    }
  }
  throw std::invalid_argument("plan_order: unknown mode");
}

std::size_t apply_plan(Space& space, const Plan& plan) {
  if (plan.var_at_level.empty()) return 0;
  return bdd::order::apply_order(space.manager(), plan.var_at_level);
}

std::vector<double> predicted_level_pressure(Space& space,
                                             const Structure& structure) {
  bdd::Manager& mgr = space.manager();
  std::vector<double> pressure(2 * space.bits_per_state(), 0.0);
  for (const std::vector<VarId>& vars : structure.action_vars) {
    if (vars.empty()) continue;
    std::uint32_t lo = static_cast<std::uint32_t>(pressure.size());
    std::uint32_t hi = 0;
    for (const VarId v : vars) {
      const VariableInfo& info = space.info(v);
      for (std::uint32_t k = 0; k < info.bits; ++k) {
        lo = std::min({lo, mgr.level_of(info.cur_bits[k]),
                       mgr.level_of(info.next_bits[k])});
        hi = std::max({hi, mgr.level_of(info.cur_bits[k]),
                       mgr.level_of(info.next_bits[k])});
      }
    }
    for (std::uint32_t level = lo; level <= hi && level < pressure.size();
         ++level) {
      pressure[level] += 1.0;
    }
  }
  return pressure;
}

}  // namespace lr::sym::order
