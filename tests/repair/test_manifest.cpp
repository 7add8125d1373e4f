// Tests for the batch checkpoint manifest: JSON round-trip, atomic save,
// tolerance of missing/corrupt files, and the options fingerprint.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "repair/manifest.hpp"
#include "support/fs.hpp"
#include "support/json.hpp"

namespace lr::repair {
namespace {

ManifestEntry sample_entry(const std::string& name) {
  ManifestEntry entry;
  entry.name = name;
  entry.input_hash = "fnv1a:00000000deadbeef";
  entry.options_fingerprint = "lazy|paperloop|masking";
  entry.status = "ok";
  entry.algorithm = "lazy (group loop)";
  entry.export_path = "dir/repaired/" + name + ".lr";
  entry.attempts = 2;
  entry.seconds = 1.25;
  entry.model_states = 48.0;
  entry.invariant_states = 14.0;
  entry.span_states = 16.0;
  entry.verified = true;
  entry.verify_ok = true;
  return entry;
}

TEST(ManifestTest, SaveLoadRoundTripPreservesEveryField) {
  const std::string path = ::testing::TempDir() + "manifest_roundtrip.json";
  Manifest manifest;
  manifest.set(sample_entry("tmr"));
  ManifestEntry failed = sample_entry("broken");
  failed.status = "failed";
  failed.failure_reason = "a \"quoted\" reason\nwith a newline";
  failed.export_path.clear();
  failed.verified = false;
  failed.verify_ok = false;
  manifest.set(failed);
  ASSERT_TRUE(manifest.save(path));

  const std::optional<Manifest> loaded = Manifest::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  const ManifestEntry* tmr = loaded->find("tmr");
  ASSERT_NE(tmr, nullptr);
  EXPECT_EQ(tmr->input_hash, "fnv1a:00000000deadbeef");
  EXPECT_EQ(tmr->options_fingerprint, "lazy|paperloop|masking");
  EXPECT_EQ(tmr->status, "ok");
  EXPECT_EQ(tmr->algorithm, "lazy (group loop)");
  EXPECT_EQ(tmr->export_path, "dir/repaired/tmr.lr");
  EXPECT_EQ(tmr->attempts, 2u);
  EXPECT_EQ(tmr->seconds, 1.25);
  EXPECT_EQ(tmr->model_states, 48.0);
  EXPECT_EQ(tmr->invariant_states, 14.0);
  EXPECT_EQ(tmr->span_states, 16.0);
  EXPECT_TRUE(tmr->verified);
  EXPECT_TRUE(tmr->verify_ok);
  const ManifestEntry* broken = loaded->find("broken");
  ASSERT_NE(broken, nullptr);
  EXPECT_EQ(broken->status, "failed");
  EXPECT_EQ(broken->failure_reason, "a \"quoted\" reason\nwith a newline");
  EXPECT_FALSE(broken->verified);
  std::remove(path.c_str());
}

TEST(ManifestTest, SaveIsAtomicAndLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "manifest_atomic.json";
  Manifest manifest;
  manifest.set(sample_entry("m"));
  ASSERT_TRUE(manifest.save(path));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "write-temp-then-rename must not leave the temp file behind";
  std::remove(path.c_str());
}

TEST(ManifestTest, ToJsonIsValidJsonWithSchemaAndSortedEntries) {
  Manifest manifest;
  manifest.set(sample_entry("zeta"));
  manifest.set(sample_entry("alpha"));
  const std::string text = manifest.to_json();
  const auto doc = support::json_parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  const support::JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->number, 1.0);
  const support::JsonValue* entries = doc->find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->object.size(), 2u);
  EXPECT_EQ(entries->object[0].first, "alpha");
  EXPECT_EQ(entries->object[1].first, "zeta");
}

TEST(ManifestTest, LoadToleratesMissingCorruptAndForeignSchema) {
  EXPECT_FALSE(Manifest::load("/no/such/dir/manifest.json").has_value());

  const std::string path = ::testing::TempDir() + "manifest_bad.json";
  ASSERT_TRUE(support::write_file_atomic(path, "{ not json"));
  EXPECT_FALSE(Manifest::load(path).has_value());
  ASSERT_TRUE(
      support::write_file_atomic(path, "{\"schema\": 99, \"entries\": {}}"));
  EXPECT_FALSE(Manifest::load(path).has_value())
      << "a future schema must read as cold start, not as data";
  std::remove(path.c_str());
}

TEST(ManifestTest, EraseSimulatesATruncatedSweep) {
  Manifest manifest;
  manifest.set(sample_entry("a"));
  manifest.set(sample_entry("b"));
  EXPECT_TRUE(manifest.erase("b"));
  EXPECT_FALSE(manifest.erase("b"));
  EXPECT_EQ(manifest.size(), 1u);
  EXPECT_EQ(manifest.find("b"), nullptr);
  ASSERT_NE(manifest.find("a"), nullptr);
}

TEST(ManifestTest, FingerprintCoversEveryOutcomeRelevantOption) {
  Options base;
  const std::string fp = options_fingerprint(base, false, true);
  EXPECT_EQ(fp, "lazy|masking|heuristic=1|order=decl|maxouter=64|verify=1");
  EXPECT_NE(fp, options_fingerprint(base, true, true));   // algorithm
  EXPECT_NE(fp, options_fingerprint(base, false, false)); // verify
  Options changed = base;
  changed.level = ToleranceLevel::kFailsafe;
  EXPECT_NE(fp, options_fingerprint(changed, false, true));
  changed = base;
  changed.restrict_to_reachable = false;
  EXPECT_NE(fp, options_fingerprint(changed, false, true));
  changed = base;
  changed.max_outer_iterations = 7;
  EXPECT_NE(fp, options_fingerprint(changed, false, true));
  changed = base;
  changed.order_mode = sym::order::Mode::kAuto;
  EXPECT_NE(fp, options_fingerprint(changed, false, true));
  // Cancellation settings bound *when* a result exists, not *what* it is.
  changed = base;
  changed.cancel = CancelToken::with_timeout(1.0);
  EXPECT_EQ(fp, options_fingerprint(changed, false, true));
}

}  // namespace
}  // namespace lr::repair
