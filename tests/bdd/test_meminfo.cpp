// Unit tests for the BDD memory & structure telemetry: the per-level
// histogram must account for exactly the live internal nodes, occupancy
// figures must stay within their bounds, eviction and GC logs must
// record what actually happened, and the metrics mirror must carry it all.

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/meminfo.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

class BddMeminfoTest : public ::testing::Test {
 protected:
  BddMeminfoTest() {
    for (int i = 0; i < 8; ++i) vars_.push_back(mgr_.new_var());
  }

  /// Builds a function with nodes on several levels and keeps it alive.
  Bdd build_workload() {
    Bdd f = mgr_.bdd_true();
    for (std::size_t v = 0; v + 1 < vars_.size(); ++v) {
      f = f & (mgr_.bdd_var(vars_[v]) ^ mgr_.bdd_var(vars_[v + 1]));
    }
    return f;
  }

  Manager mgr_;
  std::vector<VarIndex> vars_;
};

TEST_F(BddMeminfoTest, LevelHistogramSumsToLiveInternalNodes) {
  const Bdd f = build_workload();
  mgr_.collect_garbage();  // drop intermediates: histogram == reachable
  const std::vector<std::size_t> hist = mgr_.level_histogram();
  ASSERT_EQ(hist.size(), vars_.size());
  const std::size_t internal =
      std::accumulate(hist.begin(), hist.end(), std::size_t{0});
  // live_nodes() counts the two terminals; the histogram does not.
  EXPECT_EQ(internal + 2, mgr_.live_nodes());
  EXPECT_GT(internal, 0u);
  (void)f;
}

TEST_F(BddMeminfoTest, CollectSnapshotsOccupancyWithinBounds) {
  const Bdd f = build_workload();
  const meminfo::MemInfo info = meminfo::collect(mgr_);
  EXPECT_EQ(info.live_nodes, mgr_.live_nodes());
  EXPECT_GE(info.peak_nodes, info.live_nodes);
  EXPECT_GE(info.peak_bytes, info.pool_bytes);
  EXPECT_GT(info.pool_bytes, 0u);
  EXPECT_LE(info.unique_buckets_used, info.unique_buckets);
  EXPECT_GE(info.unique_load, 0.0);
  EXPECT_LE(info.cache_entries_used, info.cache_entries);
  EXPECT_GE(info.cache_occupancy, 0.0);
  EXPECT_LE(info.cache_occupancy, 1.0);
  EXPECT_GE(info.cache_hit_rate, 0.0);
  EXPECT_LE(info.cache_hit_rate, 1.0);
  EXPECT_GT(info.cache_entries_used, 0u) << "workload must probe the cache";
  ASSERT_EQ(info.level_histogram.size(), vars_.size());
  (void)f;
}

TEST_F(BddMeminfoTest, TinyCacheCountsEvictions) {
  Manager::Options options;
  options.cache_bytes = 16 * 16;  // 16 entries: collisions guaranteed
  Manager small(options);
  std::vector<VarIndex> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(small.new_var());
  Bdd f = small.bdd_true();
  for (std::size_t v = 0; v + 1 < vars.size(); ++v) {
    f = f & (small.bdd_var(vars[v]) ^ small.bdd_var(vars[v + 1]));
  }
  EXPECT_GT(small.stats().cache_evictions, 0u);
}

/// Eviction-heavy workload: a growing disjunction of random minterms, whose
/// every OR probes far more distinct keys than a small cache holds.
void churn_cache(Manager& mgr) {
  std::vector<VarIndex> vars;
  for (int i = 0; i < 16; ++i) vars.push_back(mgr.new_var());
  support::SplitMix64 rng(5);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 300; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= term;
    ASSERT_LE(mgr.cache_entry_count(), mgr.cache_entry_cap());
  }
}

TEST(BddMeminfoCacheTest, CacheStartsSmallAndGrowsUnderEvictionPressure) {
  Manager mgr;
  EXPECT_EQ(mgr.cache_entry_count(), 4096u);
  EXPECT_EQ(Manager::Options{}.cache_bytes, std::size_t{8} << 20);
  EXPECT_EQ(mgr.cache_entry_cap(), 524288u) << "8 MiB of 16-byte entries";
  EXPECT_EQ(mgr.stats().cache_resizes, 0u);
  const std::size_t fresh_peak = mgr.stats().peak_bytes;

  churn_cache(mgr);
  const ManagerStats& stats = mgr.stats();
  EXPECT_GT(stats.cache_resizes, 0u);
  EXPECT_EQ(mgr.cache_entry_count(), std::size_t{4096} << stats.cache_resizes)
      << "every resize doubles";
  // The watermark follows the growth: it covers the grown cache.
  EXPECT_GE(stats.peak_bytes, mgr.allocated_bytes());
  EXPECT_GE(stats.peak_bytes - fresh_peak,
            (mgr.cache_entry_count() - 4096) * 16)
      << "a cache entry is four 32-bit words";

  const meminfo::MemInfo info = meminfo::collect(mgr);
  EXPECT_EQ(info.cache_entries, mgr.cache_entry_count());
  EXPECT_EQ(info.cache_cap, mgr.cache_entry_cap());
  EXPECT_EQ(info.cache_resizes, stats.cache_resizes);
  std::ostringstream out;
  meminfo::write_report(info, out);
  EXPECT_NE(out.str().find("(cap 524288, " +
                           std::to_string(stats.cache_resizes) + " resize"),
            std::string::npos)
      << out.str();
}

TEST(BddMeminfoCacheTest, CacheCapIsCacheBytesOverEntrySize) {
  for (const std::size_t bytes : {std::size_t{16}, std::size_t{16 * 5000 + 15},
                                  std::size_t{3} << 20}) {
    Manager::Options options;
    options.cache_bytes = bytes;
    const Manager mgr(options);
    EXPECT_EQ(mgr.cache_entry_cap(), bytes / 16) << bytes;
  }
  Manager::Options none;
  none.cache_bytes = 15;
  EXPECT_THROW(Manager{none}, std::invalid_argument) << "room for no entry";
}

TEST(BddMeminfoCacheTest, CacheGrowthStopsAtTheCap) {
  Manager::Options options;
  options.cache_bytes = 8192 * 16;  // cap 8192: one doubling allowed
  Manager mgr(options);
  churn_cache(mgr);
  EXPECT_EQ(mgr.cache_entry_count(), 8192u);
  EXPECT_EQ(mgr.stats().cache_resizes, 1u);
}

TEST(BddMeminfoCacheTest, CacheGrowthStopsOnANonPowerOfTwoCap) {
  Manager::Options options;
  options.cache_bytes = 10000 * 16;  // 4096 -> 8192 -> 10000
  Manager mgr(options);
  churn_cache(mgr);
  EXPECT_EQ(mgr.cache_entry_count(), 10000u);
  EXPECT_EQ(mgr.cache_entry_cap(), 10000u);
  EXPECT_EQ(mgr.stats().cache_resizes, 2u);
  EXPECT_LE(mgr.cache_entries_used(), 10000u);
}

TEST(BddMeminfoCacheTest, CacheAtOrBelowInitialSizeNeverGrows) {
  for (const std::size_t entries : {16u, 3000u, 4096u}) {
    Manager::Options options;
    options.cache_bytes = entries * 16;
    Manager mgr(options);
    EXPECT_EQ(mgr.cache_entry_count(), entries);
    churn_cache(mgr);
    EXPECT_EQ(mgr.cache_entry_count(), entries);
    EXPECT_EQ(mgr.stats().cache_resizes, 0u);
    EXPECT_GT(mgr.stats().cache_evictions, 0u) << "pressure was there";
  }
}

TEST_F(BddMeminfoTest, GcLogRecordsTriggerAndReclaim) {
  {
    const Bdd f = build_workload();
    (void)f;
  }  // everything dead now
  ASSERT_TRUE(mgr_.gc_log().empty());
  mgr_.collect_garbage();
  ASSERT_EQ(mgr_.gc_log().size(), 1u);
  const GcRecord& record = mgr_.gc_log().front();
  EXPECT_EQ(record.trigger, GcTrigger::kExplicit);
  EXPECT_GT(record.reclaimed, 0u);
  EXPECT_EQ(record.live_before - record.live_after, record.reclaimed);
  EXPECT_EQ(mgr_.gc_log_dropped(), 0u);
  EXPECT_STREQ(gc_trigger_name(record.trigger), "explicit");
}

TEST_F(BddMeminfoTest, WriteReportListsTopLevelsDeterministically) {
  const Bdd f = build_workload();
  mgr_.collect_garbage();
  const meminfo::MemInfo info = meminfo::collect(mgr_);
  std::ostringstream out;
  meminfo::write_report(info, out, /*max_levels=*/3);
  const std::string text = out.str();
  EXPECT_NE(text.find("bdd memory:"), std::string::npos) << text;
  EXPECT_NE(text.find("unique table"), std::string::npos) << text;
  EXPECT_NE(text.find("op cache"), std::string::npos) << text;
  EXPECT_NE(text.find("top levels by live nodes"), std::string::npos) << text;
  // Two identical snapshots render identically.
  std::ostringstream again;
  meminfo::write_report(meminfo::collect(mgr_), again, /*max_levels=*/3);
  EXPECT_EQ(text, again.str());
  (void)f;
}

TEST_F(BddMeminfoTest, MetricsMirrorCarriesMemKeys) {
  const Bdd f = build_workload();
  const meminfo::MemInfo info = meminfo::collect(mgr_);
  meminfo::record_metrics(info, "meminfotest.mem");
  support::metrics::Registry& m = support::metrics::registry();
  EXPECT_EQ(m.gauge("meminfotest.mem.live_nodes"),
            static_cast<double>(info.live_nodes));
  EXPECT_EQ(m.gauge("meminfotest.mem.peak_bytes"),
            static_cast<double>(info.peak_bytes));
  EXPECT_GT(m.gauge("meminfotest.mem.unique_buckets"), 0.0);
  EXPECT_EQ(m.gauge("meminfotest.mem.cache_entries"),
            static_cast<double>(info.cache_entries));
  EXPECT_EQ(m.gauge("meminfotest.mem.cache_cap"),
            static_cast<double>(info.cache_cap));
  EXPECT_EQ(m.gauge("meminfotest.mem.cache_resizes"),
            static_cast<double>(info.cache_resizes));
  // Per-level histogram gauges exist for populated levels.
  bool found_level = false;
  for (std::size_t level = 0; level < info.level_histogram.size(); ++level) {
    if (info.level_histogram[level] == 0) continue;
    found_level = true;
    EXPECT_EQ(m.gauge("meminfotest.mem.level." + std::to_string(level) +
                      ".nodes"),
              static_cast<double>(info.level_histogram[level]));
  }
  EXPECT_TRUE(found_level);
  (void)f;
}

}  // namespace
}  // namespace lr::bdd
