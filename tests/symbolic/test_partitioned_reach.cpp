// Property test: partitioned (saturation) reachability computes exactly
// the same fixpoint as monolithic breadth-first reachability, on random
// partitioned relations.

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.hpp"
#include "symbolic/space.hpp"

namespace lr::sym {
namespace {

/// The reference: breadth-first search over the union as one relation,
/// one image of the whole frontier per step.
bdd::Bdd monolithic_bfs(Space& space, const bdd::Bdd& rel,
                        const bdd::Bdd& from) {
  bdd::Bdd reached = from;
  bdd::Bdd frontier = from;
  while (!frontier.is_false()) {
    frontier = space.image({&rel, 1}, frontier).minus(reached);
    reached |= frontier;
  }
  return reached;
}

class PartitionedReachTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionedReachTest, AgreesWithMonolithicBfs) {
  lr::support::SplitMix64 rng(GetParam());
  Space space;
  const VarId a = space.add_variable("a", 3);
  const VarId b = space.add_variable("b", 4);
  const VarId c = space.add_variable("c", 2);
  (void)a;
  (void)b;
  (void)c;

  for (int round = 0; round < 8; ++round) {
    // 3 random partitions of ~12 transitions each.
    std::vector<bdd::Bdd> parts;
    bdd::Bdd all = space.bdd_false();
    for (int p = 0; p < 3; ++p) {
      bdd::Bdd rel = space.bdd_false();
      for (int t = 0; t < 12; ++t) {
        const std::uint32_t from[3] = {
            static_cast<std::uint32_t>(rng.below(3)),
            static_cast<std::uint32_t>(rng.below(4)),
            static_cast<std::uint32_t>(rng.below(2))};
        const std::uint32_t to[3] = {
            static_cast<std::uint32_t>(rng.below(3)),
            static_cast<std::uint32_t>(rng.below(4)),
            static_cast<std::uint32_t>(rng.below(2))};
        rel |= space.transition(from, to);
      }
      all |= rel;
      parts.push_back(std::move(rel));
    }
    const std::uint32_t start[3] = {0, 0, 0};
    const bdd::Bdd from = space.state(start);
    EXPECT_EQ(space.forward_reachable(parts, from),
              monolithic_bfs(space, all, from));
    // Also from a random bigger seed set.
    const std::uint32_t start2[3] = {
        static_cast<std::uint32_t>(rng.below(3)),
        static_cast<std::uint32_t>(rng.below(4)),
        static_cast<std::uint32_t>(rng.below(2))};
    const bdd::Bdd seeds = from | space.state(start2);
    EXPECT_EQ(space.forward_reachable(parts, seeds),
              monolithic_bfs(space, all, seeds));
  }
}

TEST_P(PartitionedReachTest, EmptyPartitionListIsIdentity) {
  Space space;
  (void)space.add_variable("a", 4);
  const std::uint32_t s[1] = {2};
  const bdd::Bdd from = space.state(s);
  EXPECT_EQ(space.forward_reachable(std::vector<bdd::Bdd>{}, from), from);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionedReachTest,
                         ::testing::Values(1ull, 9ull, 99ull));

}  // namespace
}  // namespace lr::sym
