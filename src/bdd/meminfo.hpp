#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"

namespace lr::bdd::meminfo {

/// Snapshot of one manager's memory shape: where the nodes live (per
/// level), how full the unique table and op cache are, and the watermarks.
/// Collected on demand — collect() is one pool walk plus one cache walk, so
/// it is cheap enough to run at the end of every repair but not inside hot
/// loops.
struct MemInfo {
  std::size_t live_nodes = 0;
  std::size_t peak_nodes = 0;
  std::size_t pool_nodes = 0;       ///< pool slots (live + free + terminals)
  std::size_t pool_bytes = 0;       ///< pool + unique table + op cache, now
  std::size_t peak_bytes = 0;       ///< high-water mark of pool_bytes
  std::uint64_t created_nodes = 0;
  std::uint64_t unique_hits = 0;

  std::size_t unique_buckets = 0;
  std::size_t unique_buckets_used = 0;
  double unique_load = 0.0;         ///< live nodes per bucket

  std::size_t cache_entries = 0;    ///< current entries (grows under pressure)
  std::size_t cache_cap = 0;        ///< entries the cache may grow to
  std::uint64_t cache_resizes = 0;  ///< growth steps so far
  std::size_t cache_entries_used = 0;
  double cache_occupancy = 0.0;     ///< used / current entries
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  double cache_hit_rate = 0.0;

  std::vector<std::size_t> level_histogram;  ///< live nodes per level (= var)
};

[[nodiscard]] MemInfo collect(const Manager& mgr);

/// Renders the "bdd memory" --stats section: summary lines plus the
/// top-`max_levels` levels by live-node count (ties broken by level, so the
/// output is deterministic).
void write_report(const MemInfo& info, std::ostream& out,
                  std::size_t max_levels = 10);

/// Mirrors the snapshot into the metrics registry as `<prefix>.*` gauges
/// (per-level node counts land under `<prefix>.level.<L>.nodes`, nonzero
/// levels only).
void record_metrics(const MemInfo& info, const std::string& prefix = "bdd.mem");

/// Renders the "bdd gc" --stats section from the manager's structured GC
/// log: per-trigger run counts and reclaimed totals. Writes nothing when no
/// GC ever ran.
void write_gc_report(const Manager& mgr, std::ostream& out);

}  // namespace lr::bdd::meminfo
