#include "bdd/meminfo.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <vector>

#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace lr::bdd::meminfo {

namespace {

std::string percent(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", fraction * 100.0);
  return buffer;
}

std::string fixed2(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

/// Human-readable byte count. Integer arithmetic below 1 KiB, one decimal
/// above, so the rendering is deterministic across platforms.
std::string format_bytes(std::size_t bytes) {
  char buffer[32];
  if (bytes < 1024) {
    std::snprintf(buffer, sizeof(buffer), "%zu B", bytes);
  } else if (bytes < 1024 * 1024) {
    std::snprintf(buffer, sizeof(buffer), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  }
  return buffer;
}

}  // namespace

MemInfo collect(const Manager& mgr) {
  MemInfo info;
  const ManagerStats& stats = mgr.stats();
  info.live_nodes = stats.live_nodes;
  info.peak_nodes = stats.peak_nodes;
  info.pool_nodes = stats.live_nodes;  // terminals included; free slots not
  info.pool_bytes = mgr.allocated_bytes();
  info.peak_bytes = stats.peak_bytes;
  info.created_nodes = stats.created_nodes;
  info.unique_hits = stats.unique_hits;

  info.unique_buckets = mgr.unique_bucket_count();
  info.unique_buckets_used = mgr.unique_buckets_used();
  info.unique_load = mgr.unique_load();

  info.cache_entries = mgr.cache_entry_count();
  info.cache_cap = mgr.cache_entry_cap();
  info.cache_resizes = stats.cache_resizes;
  info.cache_entries_used = mgr.cache_entries_used();
  info.cache_occupancy =
      info.cache_entries == 0
          ? 0.0
          : static_cast<double>(info.cache_entries_used) /
                static_cast<double>(info.cache_entries);
  info.cache_lookups = stats.cache_lookups;
  info.cache_hits = stats.cache_hits;
  info.cache_evictions = stats.cache_evictions;
  info.cache_hit_rate =
      info.cache_lookups == 0
          ? 0.0
          : static_cast<double>(info.cache_hits) /
                static_cast<double>(info.cache_lookups);

  info.level_histogram = mgr.level_histogram();
  return info;
}

void write_report(const MemInfo& info, std::ostream& out,
                  std::size_t max_levels) {
  out << "bdd memory:\n";
  out << "  nodes         " << info.live_nodes << " live, " << info.peak_nodes
      << " peak, " << info.created_nodes << " created\n";
  out << "  bytes         " << format_bytes(info.pool_bytes) << " now, "
      << format_bytes(info.peak_bytes) << " peak\n";
  out << "  unique table  " << info.unique_buckets << " buckets, "
      << info.unique_buckets_used << " used, load "
      << fixed2(info.unique_load) << ", " << info.unique_hits << " hits\n";
  out << "  op cache      " << info.cache_entries << " entries (cap "
      << info.cache_cap << ", " << info.cache_resizes << " resize"
      << (info.cache_resizes == 1 ? "" : "s") << "), "
      << info.cache_entries_used << " used ("
      << percent(info.cache_occupancy) << "), hit rate "
      << percent(info.cache_hit_rate) << ", " << info.cache_evictions
      << " evictions\n";

  // Top levels by live-node population, largest first; ties break toward
  // the upper level so the listing is deterministic.
  std::vector<std::size_t> levels(info.level_histogram.size());
  std::iota(levels.begin(), levels.end(), std::size_t{0});
  std::sort(levels.begin(), levels.end(), [&](std::size_t a, std::size_t b) {
    if (info.level_histogram[a] != info.level_histogram[b]) {
      return info.level_histogram[a] > info.level_histogram[b];
    }
    return a < b;
  });
  const std::size_t internal = std::accumulate(
      info.level_histogram.begin(), info.level_histogram.end(), std::size_t{0});
  support::Table table({"level", "nodes", "share"});
  std::size_t shown = 0;
  for (const std::size_t level : levels) {
    if (shown == max_levels || info.level_histogram[level] == 0) break;
    table.add_row({std::to_string(level),
                   std::to_string(info.level_histogram[level]),
                   percent(static_cast<double>(info.level_histogram[level]) /
                           static_cast<double>(internal == 0 ? 1 : internal))});
    ++shown;
  }
  if (shown > 0) {
    out << "  top levels by live nodes";
    if (shown < levels.size()) {
      out << " (" << shown << " of " << info.level_histogram.size()
          << " levels)";
    }
    out << ":\n";
    table.print(out);
  }
}

void record_metrics(const MemInfo& info, const std::string& prefix) {
  support::metrics::Registry& m = support::metrics::registry();
  m.set_gauge(prefix + ".live_nodes", static_cast<double>(info.live_nodes));
  m.max_gauge(prefix + ".peak_nodes", static_cast<double>(info.peak_nodes));
  m.set_gauge(prefix + ".pool_bytes", static_cast<double>(info.pool_bytes));
  m.max_gauge(prefix + ".peak_bytes", static_cast<double>(info.peak_bytes));
  m.set_gauge(prefix + ".unique_buckets",
              static_cast<double>(info.unique_buckets));
  m.set_gauge(prefix + ".unique_buckets_used",
              static_cast<double>(info.unique_buckets_used));
  m.set_gauge(prefix + ".unique_load", info.unique_load);
  m.set_gauge(prefix + ".cache_entries",
              static_cast<double>(info.cache_entries));
  m.set_gauge(prefix + ".cache_cap", static_cast<double>(info.cache_cap));
  m.set_gauge(prefix + ".cache_resizes",
              static_cast<double>(info.cache_resizes));
  m.set_gauge(prefix + ".cache_entries_used",
              static_cast<double>(info.cache_entries_used));
  m.set_gauge(prefix + ".cache_occupancy", info.cache_occupancy);
  m.set_gauge(prefix + ".cache_hit_rate", info.cache_hit_rate);
  m.set_gauge(prefix + ".cache_evictions",
              static_cast<double>(info.cache_evictions));
  for (std::size_t level = 0; level < info.level_histogram.size(); ++level) {
    if (info.level_histogram[level] == 0) continue;
    m.set_gauge(prefix + ".level." + std::to_string(level) + ".nodes",
                static_cast<double>(info.level_histogram[level]));
  }
}

void write_gc_report(const Manager& mgr, std::ostream& out) {
  const std::vector<GcRecord>& log = mgr.gc_log();
  if (log.empty()) return;
  std::size_t runs_by_trigger[2] = {0, 0};
  std::size_t reclaimed = 0;
  double seconds = 0.0;
  for (const GcRecord& record : log) {
    ++runs_by_trigger[static_cast<int>(record.trigger)];
    reclaimed += record.reclaimed;
    seconds += record.seconds;
  }
  out << "bdd gc: " << log.size() << " runs (threshold " << runs_by_trigger[0]
      << ", explicit " << runs_by_trigger[1] << "), " << reclaimed
      << " nodes reclaimed, "
      << support::format_duration(seconds);
  if (mgr.gc_log_dropped() > 0) {
    out << " (+" << mgr.gc_log_dropped() << " unrecorded runs)";
  }
  out << "\n";
}

}  // namespace lr::bdd::meminfo
