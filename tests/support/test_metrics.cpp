// Tests for the metrics registry: counter/gauge semantics, snapshotting,
// and the JSON run-report serialization (validated with the JSON parser).

#include <gtest/gtest.h>

#include "support/json.hpp"
#include "support/metrics.hpp"

namespace lr::support::metrics {
namespace {

TEST(MetricsTest, CountersAccumulate) {
  Registry reg;
  EXPECT_FALSE(reg.has_counter("hits"));
  EXPECT_EQ(reg.counter("hits"), 0u);
  reg.add("hits");
  reg.add("hits", 4);
  EXPECT_TRUE(reg.has_counter("hits"));
  EXPECT_EQ(reg.counter("hits"), 5u);
}

TEST(MetricsTest, GaugesKeepLastValue) {
  Registry reg;
  EXPECT_FALSE(reg.has_gauge("seconds"));
  reg.set_gauge("seconds", 1.5);
  reg.set_gauge("seconds", 0.25);
  EXPECT_TRUE(reg.has_gauge("seconds"));
  EXPECT_EQ(reg.gauge("seconds"), 0.25);
}

TEST(MetricsTest, MaxGaugeKeepsHighWaterMark) {
  Registry reg;
  reg.max_gauge("peak", 10.0);
  reg.max_gauge("peak", 3.0);
  EXPECT_EQ(reg.gauge("peak"), 10.0);
  reg.max_gauge("peak", 42.0);
  EXPECT_EQ(reg.gauge("peak"), 42.0);
}

TEST(MetricsTest, ClearEmptiesBothFamilies) {
  Registry reg;
  reg.add("c");
  reg.set_gauge("g", 1.0);
  reg.clear();
  EXPECT_FALSE(reg.has_counter("c"));
  EXPECT_FALSE(reg.has_gauge("g"));
}

TEST(MetricsTest, SnapshotCapturesState) {
  Registry reg;
  reg.add("a.x", 2);
  reg.add("a.y", 7);
  reg.set_gauge("b.z", 3.5);
  const Registry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.at("a.x"), 2u);
  EXPECT_EQ(snap.counters.at("a.y"), 7u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges.at("b.z"), 3.5);

  // The snapshot is a copy: later mutation does not retroact.
  reg.add("a.x");
  EXPECT_EQ(snap.counters.at("a.x"), 2u);
}

TEST(MetricsTest, JsonRoundTripPreservesValues) {
  Registry reg;
  reg.add("bdd.cache_hits", 12345);
  reg.add("repair.outer_iterations", 3);
  reg.set_gauge("repair.step1_seconds", 0.125);
  reg.set_gauge("repair.reachable_states", 1.0e12);

  const auto doc = json_parse(reg.to_json());
  ASSERT_TRUE(doc.has_value()) << reg.to_json();
  ASSERT_TRUE(doc->is_object());

  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  EXPECT_EQ(counters->find("bdd.cache_hits")->number, 12345.0);
  EXPECT_EQ(counters->find("repair.outer_iterations")->number, 3.0);

  const JsonValue* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_TRUE(gauges->is_object());
  EXPECT_EQ(gauges->find("repair.step1_seconds")->number, 0.125);
  EXPECT_EQ(gauges->find("repair.reachable_states")->number, 1.0e12);
}

TEST(MetricsTest, EmptyRegistrySerializesToEmptyFamilies) {
  Registry reg;
  const auto doc = json_parse(reg.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->find("counters");
  const JsonValue* gauges = doc->find("gauges");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  EXPECT_TRUE(counters->object.empty());
  EXPECT_TRUE(gauges->object.empty());
}

TEST(MetricsTest, ReportKeysAreSortedAndByteDeterministic) {
  // Two registries fed the same values in different orders must serialize
  // byte-identically, with keys in sorted order — the guarantee that
  // lr_report's diffs of two run reports and the CI artifacts rely on.
  Registry a;
  a.add("z.counter", 7);
  a.add("a.counter", 1);
  a.set_gauge("m.gauge", 2.5);
  a.set_gauge("b.gauge", 0.125);

  Registry b;
  b.set_gauge("b.gauge", 0.125);
  b.add("a.counter", 1);
  b.set_gauge("m.gauge", 2.5);
  b.add("z.counter", 7);

  const std::string json_a = a.to_json();
  EXPECT_EQ(json_a, b.to_json());

  // Sorted key order within each family, by construction.
  EXPECT_LT(json_a.find("a.counter"), json_a.find("z.counter"));
  EXPECT_LT(json_a.find("b.gauge"), json_a.find("m.gauge"));

  // A separate identical run (fresh registry, same recording) is also
  // byte-identical — serialization has no hidden run-local state.
  Registry c;
  c.add("z.counter", 7);
  c.add("a.counter", 1);
  c.set_gauge("m.gauge", 2.5);
  c.set_gauge("b.gauge", 0.125);
  EXPECT_EQ(json_a, c.to_json());
}

TEST(MetricsTest, GlobalRegistryIsASingleton) {
  registry().add("metrics_test.singleton_probe", 2);
  EXPECT_GE(registry().counter("metrics_test.singleton_probe"), 2u);
}

}  // namespace
}  // namespace lr::support::metrics
