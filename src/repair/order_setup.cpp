#include "repair/order_setup.hpp"

#include <algorithm>
#include <ostream>

#include "support/log.hpp"
#include "support/metrics.hpp"

namespace lr::repair {

void apply_order_options(prog::DistributedProgram& program,
                         const Options& options) {
  // Declaration order is the engine's native order: skip entirely so
  // default runs stay byte-identical (no new metrics keys, no swaps).
  if (options.order_mode == sym::order::Mode::kDecl) return;
  const sym::order::Plan plan = sym::order::plan_order(
      program.space(), program.order_structure(), options.order_mode);
  const std::size_t swaps = sym::order::apply_plan(program.space(), plan);
  support::metrics::Registry& m = support::metrics::registry();
  m.set_gauge("bdd.order.applied", 1.0);
  m.set_gauge("bdd.order.swaps", static_cast<double>(swaps));
  m.set_gauge("bdd.order.span_cost", plan.span_cost);
  m.set_gauge("bdd.order.span_cost_decl", plan.decl_span_cost);
  m.set_gauge("bdd.order.mode." + std::string(sym::order::mode_name(
                                      plan.chosen)),
              1.0);
  LR_LOG(debug) << "[order] mode=" << sym::order::mode_name(plan.chosen)
                << " (requested " << sym::order::mode_name(plan.requested)
                << ") span_cost=" << plan.span_cost
                << " decl=" << plan.decl_span_cost << " swaps=" << swaps;
}

void write_order_report(prog::DistributedProgram& program,
                        const Options& options, std::ostream& out,
                        std::size_t max_levels) {
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  const sym::order::Structure structure = program.order_structure();
  const sym::order::Plan plan =
      sym::order::plan_order(space, structure, options.order_mode);
  const std::vector<double> predicted =
      sym::order::predicted_level_pressure(space, structure);
  const std::vector<std::size_t> histogram = mgr.level_histogram();
  const std::vector<std::string> labels = sym::order::bit_labels(space);

  out << "bdd order:\n";
  out << "  mode: " << sym::order::mode_name(plan.chosen);
  if (plan.requested != plan.chosen) {
    out << " (requested " << sym::order::mode_name(plan.requested) << ")";
  }
  out << "\n";
  out << "  span cost: " << plan.span_cost << " (declaration order "
      << plan.decl_span_cost << ")\n";

  // Heaviest levels first (ties by level) — predicted pressure vs the
  // actual live-node histogram, the order's quality evidence.
  std::vector<std::uint32_t> levels(histogram.size());
  for (std::uint32_t level = 0; level < levels.size(); ++level) {
    levels[level] = level;
  }
  std::sort(levels.begin(), levels.end(),
            [&histogram](std::uint32_t a, std::uint32_t b) {
              if (histogram[a] != histogram[b]) {
                return histogram[a] > histogram[b];
              }
              return a < b;
            });
  const std::size_t shown = std::min(max_levels, levels.size());
  out << "  level  bit          predicted  nodes\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const std::uint32_t level = levels[i];
    const bdd::VarIndex v = mgr.var_at_level(level);
    const std::string label = v < labels.size() ? labels[v] : "?";
    out << "  " << level;
    for (std::size_t pad = std::to_string(level).size(); pad < 5; ++pad) {
      out << ' ';
    }
    out << "  " << label;
    for (std::size_t pad = label.size(); pad < 11; ++pad) out << ' ';
    out << "  " << predicted[level];
    for (std::size_t pad = std::to_string(static_cast<long long>(
                                              predicted[level]))
                               .size();
         pad < 9; ++pad) {
      out << ' ';
    }
    out << "  " << histogram[level] << "\n";
  }
}

}  // namespace lr::repair
