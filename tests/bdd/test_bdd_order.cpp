// Tests for the static-order layer over the BDD manager: applying a target
// level permutation through adjacent swaps, restoring the creation order,
// and the persisted order-profile JSON format.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/order.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

/// Truth-table fingerprint of f over the first `n` variables (n <= 16).
std::vector<bool> fingerprint(const Manager& mgr, const Bdd& f,
                              std::uint32_t n) {
  std::vector<bool> table;
  table.reserve(1u << n);
  for (std::uint32_t row = 0; row < (1u << n); ++row) {
    bool buf[16];
    for (std::uint32_t v = 0; v < n; ++v) buf[v] = ((row >> v) & 1u) != 0;
    table.push_back(mgr.eval(f, std::span<const bool>(buf, n)));
  }
  return table;
}

Bdd random_function(Manager& mgr, std::uint32_t n, std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 24; ++i) {
    Bdd term = mgr.bdd_true();
    for (VarIndex v = 0; v < n; ++v) {
      if (rng.flip()) term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= term;
  }
  return f;
}

TEST(BddOrderTest, ApplyOrderRealizesTheTargetPermutation) {
  Manager mgr;
  for (int i = 0; i < 6; ++i) (void)mgr.new_var();
  const Bdd f = random_function(mgr, 6, 11);
  const auto table = fingerprint(mgr, f, 6);

  const std::vector<VarIndex> target = {3, 1, 5, 0, 4, 2};
  const std::size_t swaps = order::apply_order(mgr, target);
  EXPECT_GT(swaps, 0u);
  for (std::uint32_t level = 0; level < 6; ++level) {
    EXPECT_EQ(mgr.var_at_level(level), target[level]) << "level " << level;
    EXPECT_EQ(mgr.level_of(target[level]), level);
  }
  EXPECT_EQ(fingerprint(mgr, f, 6), table) << "handles must keep semantics";

  // Applying the order the manager already has costs zero swaps.
  EXPECT_EQ(order::apply_order(mgr, target), 0u);
}

TEST(BddOrderTest, RestoreCreationOrderIsTheIdentityPermutation) {
  Manager mgr;
  for (int i = 0; i < 5; ++i) (void)mgr.new_var();
  const Bdd f = random_function(mgr, 5, 7);
  const auto table = fingerprint(mgr, f, 5);
  (void)order::apply_order(mgr, std::vector<VarIndex>{4, 2, 0, 3, 1});
  (void)order::restore_creation_order(mgr);
  for (std::uint32_t level = 0; level < 5; ++level) {
    EXPECT_EQ(mgr.var_at_level(level), level);
  }
  EXPECT_EQ(fingerprint(mgr, f, 5), table);
  EXPECT_EQ(order::restore_creation_order(mgr), 0u) << "already restored";
}

TEST(BddOrderTest, ApplyOrderRejectsNonPermutations) {
  Manager mgr;
  for (int i = 0; i < 4; ++i) (void)mgr.new_var();
  // Wrong size.
  EXPECT_THROW((void)order::apply_order(mgr, std::vector<VarIndex>{0, 1, 2}),
               std::invalid_argument);
  // Duplicate entry.
  EXPECT_THROW(
      (void)order::apply_order(mgr, std::vector<VarIndex>{0, 1, 2, 2}),
      std::invalid_argument);
  // Out-of-range entry.
  EXPECT_THROW(
      (void)order::apply_order(mgr, std::vector<VarIndex>{0, 1, 2, 9}),
      std::invalid_argument);
  // The failed calls must not have moved anything.
  for (std::uint32_t level = 0; level < 4; ++level) {
    EXPECT_EQ(mgr.var_at_level(level), level);
  }
}

TEST(BddOrderTest, ProfileJsonRoundTripsExactly) {
  Manager mgr;
  for (int i = 0; i < 4; ++i) (void)mgr.new_var();
  const Bdd f = random_function(mgr, 4, 3);
  (void)f;
  const std::vector<std::string> labels = {"a.0", "a.0'", "b.0", "b.0'"};
  const order::OrderProfile profile =
      order::capture_profile(mgr, labels, "toy-model", "adjacency");
  EXPECT_EQ(profile.model, "toy-model");
  EXPECT_EQ(profile.source, "adjacency");
  ASSERT_EQ(profile.levels.size(), 4u);
  EXPECT_EQ(profile.levels[0].label, "a.0");

  const std::string json = order::profile_to_json(profile);
  const auto parsed = order::parse_profile(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->model, profile.model);
  EXPECT_EQ(parsed->source, profile.source);
  EXPECT_EQ(parsed->live_nodes, profile.live_nodes);
  EXPECT_EQ(parsed->peak_nodes, profile.peak_nodes);
  ASSERT_EQ(parsed->levels.size(), profile.levels.size());
  for (std::size_t i = 0; i < profile.levels.size(); ++i) {
    EXPECT_EQ(parsed->levels[i].label, profile.levels[i].label);
    EXPECT_EQ(parsed->levels[i].nodes, profile.levels[i].nodes);
  }
  // Serialization is a fixpoint: parse(json) re-serializes byte-identically
  // (the warm-start golden tests depend on this).
  EXPECT_EQ(order::profile_to_json(*parsed), json);
}

TEST(BddOrderTest, ProfileLevelsFollowTheCurrentLevelOrder) {
  Manager mgr;
  for (int i = 0; i < 4; ++i) (void)mgr.new_var();
  (void)order::apply_order(mgr, std::vector<VarIndex>{2, 0, 3, 1});
  const std::vector<std::string> labels = {"a", "b", "c", "d"};
  const order::OrderProfile profile =
      order::capture_profile(mgr, labels, "m", "decl");
  ASSERT_EQ(profile.levels.size(), 4u);
  EXPECT_EQ(profile.levels[0].label, "c");
  EXPECT_EQ(profile.levels[1].label, "a");
  EXPECT_EQ(profile.levels[2].label, "d");
  EXPECT_EQ(profile.levels[3].label, "b");
}

TEST(BddOrderTest, ParseProfileRejectsMalformedInput) {
  EXPECT_FALSE(order::parse_profile("").has_value());
  EXPECT_FALSE(order::parse_profile("{ not json").has_value());
  EXPECT_FALSE(order::parse_profile("{}").has_value());
  // Wrong schema tag: must read as unusable, not as data.
  EXPECT_FALSE(order::parse_profile(
                   R"({"schema": "lr.other/9", "model": "m", "source": "s",)"
                   R"( "levels": []})")
                   .has_value());
  // Levels must be an array of {label, nodes} objects.
  EXPECT_FALSE(order::parse_profile(
                   R"({"schema": "lr.order-profile/1", "model": "m",)"
                   R"( "source": "s", "levels": [42]})")
                   .has_value());
}

TEST(BddOrderTest, SaveAndLoadProfileThroughAFile) {
  Manager mgr;
  for (int i = 0; i < 3; ++i) (void)mgr.new_var();
  const std::vector<std::string> labels = {"x", "y", "z"};
  const order::OrderProfile profile =
      order::capture_profile(mgr, labels, "m", "interleave");
  const std::string path = ::testing::TempDir() + "order_profile_test.json";
  ASSERT_TRUE(order::save_profile(profile, path));
  const auto loaded = order::load_profile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(order::profile_to_json(*loaded), order::profile_to_json(profile));
  std::remove(path.c_str());
  EXPECT_FALSE(order::load_profile(path).has_value());
  EXPECT_FALSE(order::load_profile("/no/such/dir/p.json").has_value());
}

}  // namespace
}  // namespace lr::bdd
