#include "repair/report.hpp"

#include "support/metrics.hpp"

namespace lr::repair {

void record_run_metrics(const Stats& stats, const std::string& prefix) {
  using support::metrics::registry;
  support::metrics::Registry& m = registry();
  const std::string p = prefix.empty() ? "" : prefix + ".";

  m.set_gauge(p + "repair.step1_seconds", stats.step1_seconds);
  m.set_gauge(p + "repair.step2_seconds", stats.step2_seconds);
  m.set_gauge(p + "repair.total_seconds", stats.total_seconds);
  m.set_gauge(p + "repair.reachable_states", stats.reachable_states);
  m.set_gauge(p + "repair.span_states", stats.span_states);
  m.set_gauge(p + "repair.invariant_states", stats.invariant_states);
  m.set_gauge(p + "repair.deadlock_states_banned",
              stats.deadlock_states_banned);

  m.add(p + "repair.outer_iterations", stats.outer_iterations);
  m.add(p + "repair.addmasking_rounds", stats.addmasking_rounds);
  m.add(p + "repair.recovery_layers", stats.recovery_layers);
  m.add(p + "repair.deadlock_rounds", stats.deadlock_rounds);
  m.max_gauge(p + "repair.banned_trans_nodes",
              static_cast<double>(stats.banned_trans_nodes));

  m.add(p + "bdd.cache_lookups", stats.bdd.cache_lookups);
  m.add(p + "bdd.cache_hits", stats.bdd.cache_hits);
  m.add(p + "bdd.unique_hits", stats.bdd.unique_hits);
  m.add(p + "bdd.created_nodes", stats.bdd.created_nodes);
  m.add(p + "bdd.gc_runs", stats.bdd.gc_runs);
  m.add(p + "bdd.gc_reclaimed", stats.bdd.gc_reclaimed);
  m.add(p + "bdd.cache_evictions", stats.bdd.cache_evictions);
  m.max_gauge(p + "bdd.live_nodes", static_cast<double>(stats.bdd.live_nodes));
  m.max_gauge(p + "bdd.peak_nodes", static_cast<double>(stats.bdd.peak_nodes));
  m.max_gauge(p + "bdd.peak_bytes", static_cast<double>(stats.bdd.peak_bytes));
  m.set_gauge(p + "bdd.cache_hit_rate",
              stats.bdd.cache_lookups == 0
                  ? 0.0
                  : static_cast<double>(stats.bdd.cache_hits) /
                        static_cast<double>(stats.bdd.cache_lookups));
}

bool write_metrics_report(const std::string& path) {
  return support::metrics::write_json_file(path);
}

}  // namespace lr::repair
