// Unit tests for the finite-domain symbolic layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "symbolic/space.hpp"

namespace lr::sym {
namespace {

using bdd::Bdd;

TEST(SpaceTest, VariableMetadata) {
  Space space;
  const VarId a = space.add_variable("a", 2);
  const VarId b = space.add_variable("b", 3);
  const VarId c = space.add_variable("c", 8);
  EXPECT_EQ(space.info(a).bits, 1u);
  EXPECT_EQ(space.info(b).bits, 2u);
  EXPECT_EQ(space.info(c).bits, 3u);
  EXPECT_EQ(space.variable_count(), 3u);
  EXPECT_EQ(space.bits_per_state(), 6u);
  EXPECT_DOUBLE_EQ(space.state_space_size(), 48.0);
  EXPECT_EQ(space.find("b"), b);
  EXPECT_FALSE(space.find("zz").has_value());
}

TEST(SpaceTest, BitsAreInterleavedCurrentNext) {
  Space space;
  const VarId a = space.add_variable("a", 4);
  const auto& info = space.info(a);
  ASSERT_EQ(info.cur_bits.size(), 2u);
  EXPECT_EQ(info.cur_bits[0] + 1, info.next_bits[0]);
  EXPECT_EQ(info.cur_bits[1] + 1, info.next_bits[1]);
  EXPECT_LT(info.next_bits[0], info.cur_bits[1]);
}

TEST(SpaceTest, ValueEqPartitionsTheDomain) {
  Space space;
  const VarId a = space.add_variable("a", 3);
  Bdd all = space.bdd_false();
  for (std::uint32_t v = 0; v < 3; ++v) {
    all |= space.value_eq(a, v, Version::kCurrent);
  }
  EXPECT_EQ(all & space.valid(Version::kCurrent), space.valid(Version::kCurrent));
  // Distinct values are disjoint.
  EXPECT_TRUE(space.value_eq(a, 0, Version::kCurrent)
                  .disjoint(space.value_eq(a, 1, Version::kCurrent)));
  EXPECT_THROW((void)space.value_eq(a, 3, Version::kCurrent),
               std::invalid_argument);
}

TEST(SpaceTest, ValueLtMatchesEnumeration) {
  Space space;
  const VarId a = space.add_variable("a", 6);
  for (std::uint32_t bound = 0; bound <= 6; ++bound) {
    const Bdd lt = space.value_lt(a, bound, Version::kCurrent);
    for (std::uint32_t v = 0; v < 6; ++v) {
      const Bdd st = space.value_eq(a, v, Version::kCurrent);
      EXPECT_EQ(st.leq(lt), v < bound) << "v=" << v << " bound=" << bound;
    }
  }
}

TEST(SpaceTest, ValidExcludesOutOfDomainEncodings) {
  Space space;
  const VarId a = space.add_variable("a", 3);  // 2 bits, value 3 invalid
  (void)a;
  EXPECT_DOUBLE_EQ(space.count_states(space.bdd_true()), 3.0);
  // For power-of-two domains validity is trivial.
  Space space2;
  (void)space2.add_variable("b", 4);
  EXPECT_EQ(space2.valid(Version::kCurrent), space2.bdd_true());
}

TEST(SpaceTest, VarsEqAcrossDifferentDomains) {
  Space space;
  const VarId narrow = space.add_variable("narrow", 2);   // 1 bit
  const VarId wide = space.add_variable("wide", 3);       // 2 bits
  const Bdd eq = space.vars_eq(narrow, Version::kCurrent, wide,
                               Version::kCurrent);
  // Enumerate: equal only when values match (wide's value 2 never matches).
  for (std::uint32_t n = 0; n < 2; ++n) {
    for (std::uint32_t w = 0; w < 3; ++w) {
      const std::uint32_t values[2] = {n, w};
      const Bdd st = space.state(values);
      EXPECT_EQ(st.leq(eq), n == w) << "n=" << n << " w=" << w;
    }
  }
}

TEST(SpaceTest, UnchangedAndIdentity) {
  Space space;
  const VarId a = space.add_variable("a", 3);
  const VarId b = space.add_variable("b", 2);
  const std::uint32_t s1[2] = {2, 1};
  const std::uint32_t s2[2] = {2, 0};
  EXPECT_TRUE(space.transition(s1, s1).leq(space.identity()));
  EXPECT_FALSE(space.transition(s1, s2).leq(space.identity()));
  EXPECT_TRUE(space.transition(s1, s2).leq(space.unchanged(a)));
  EXPECT_FALSE(space.transition(s1, s2).leq(space.unchanged(b)));
}

/// The frames and domain constraints as the ascending left fold builds
/// them, against Space's deepest-first builds: equal functions share one
/// node, so each pair must have the same id.
void expect_frames_match_left_fold(Space& space) {
  std::vector<VarId> all(space.variable_count());
  for (VarId v = 0; v < all.size(); ++v) all[v] = v;
  std::vector<VarId> reversed(all.rbegin(), all.rend());
  std::vector<VarId> odd;
  for (VarId v = 1; v < all.size(); v += 2) odd.push_back(v);
  const std::vector<VarId> scrambled = {3, 0, 5, 1};
  for (const std::vector<VarId>& vs : {all, reversed, odd, scrambled}) {
    Bdd fold = space.bdd_true();
    for (const VarId v : vs) fold &= space.unchanged(v);
    EXPECT_EQ(space.unchanged(vs), fold) << vs.size() << " variables";
  }
  Bdd identity = space.bdd_true();
  Bdd valid_cur = space.bdd_true();
  Bdd valid_next = space.bdd_true();
  for (const VarId v : all) {
    identity &= space.unchanged(v);
    const std::uint32_t domain = space.info(v).domain;
    valid_cur &= space.value_lt(v, domain, Version::kCurrent);
    valid_next &= space.value_lt(v, domain, Version::kNext);
  }
  EXPECT_EQ(space.identity(), identity);
  EXPECT_EQ(space.valid(Version::kCurrent), valid_cur);
  EXPECT_EQ(space.valid(Version::kNext), valid_next);
  EXPECT_EQ(space.valid_pair(), valid_cur & valid_next);
}

TEST(SpaceTest, FramesEqualTheLeftFold) {
  Space space;
  for (const std::uint32_t domain : {3u, 2u, 5u, 8u, 6u, 1u, 7u}) {
    (void)space.add_variable("v" + std::to_string(domain), domain);
  }
  expect_frames_match_left_fold(space);
}

TEST(SpaceTest, PrimeUnprimeRoundTrip) {
  Space space;
  const VarId a = space.add_variable("a", 4);
  (void)a;
  const std::uint32_t v[1] = {2};
  const Bdd cur = space.state(v, Version::kCurrent);
  const Bdd next = space.state(v, Version::kNext);
  EXPECT_EQ(space.prime(cur), next);
  EXPECT_EQ(space.unprime(next), cur);
  EXPECT_EQ(space.unprime(space.prime(cur)), cur);
}

TEST(SpaceTest, ImageAndPreimageOnHandBuiltRelation) {
  Space space;
  const VarId x = space.add_variable("x", 4);
  (void)x;
  // rel: 0 -> 1 -> 2 -> 3, and 3 -> 3.
  Bdd rel = space.bdd_false();
  auto tr = [&](std::uint32_t from, std::uint32_t to) {
    const std::uint32_t f[1] = {from};
    const std::uint32_t t[1] = {to};
    return space.transition(f, t);
  };
  rel = tr(0, 1) | tr(1, 2) | tr(2, 3) | tr(3, 3);

  auto st = [&](std::uint32_t v) {
    const std::uint32_t s[1] = {v};
    return space.state(s);
  };
  EXPECT_EQ(space.image(rel, st(0)), st(1));
  EXPECT_EQ(space.image(rel, st(0) | st(1)), st(1) | st(2));
  EXPECT_EQ(space.image(rel, st(3)), st(3));
  EXPECT_EQ(space.preimage(rel, st(3)), st(2) | st(3));
  EXPECT_EQ(space.preimage(rel, st(0)), space.bdd_false());
}

TEST(SpaceTest, ForwardAndBackwardReachability) {
  Space space;
  const VarId x = space.add_variable("x", 8);
  (void)x;
  auto tr = [&](std::uint32_t from, std::uint32_t to) {
    const std::uint32_t f[1] = {from};
    const std::uint32_t t[1] = {to};
    return space.transition(f, t);
  };
  auto st = [&](std::uint32_t v) {
    const std::uint32_t s[1] = {v};
    return space.state(s);
  };
  // Two disconnected chains: 0->1->2 and 4->5.
  const Bdd rel = tr(0, 1) | tr(1, 2) | tr(4, 5);
  EXPECT_EQ(space.forward_reachable(rel, st(0)), st(0) | st(1) | st(2));
  EXPECT_EQ(space.forward_reachable(rel, st(4)), st(4) | st(5));
  EXPECT_EQ(space.backward_reachable(rel, st(2)), st(0) | st(1) | st(2));
  EXPECT_EQ(space.backward_reachable(rel, st(7)), st(7));
}

TEST(SpaceTest, HasSuccessorInFindsCycles) {
  Space space;
  const VarId x = space.add_variable("x", 4);
  (void)x;
  auto tr = [&](std::uint32_t from, std::uint32_t to) {
    const std::uint32_t f[1] = {from};
    const std::uint32_t t[1] = {to};
    return space.transition(f, t);
  };
  auto st = [&](std::uint32_t v) {
    const std::uint32_t s[1] = {v};
    return space.state(s);
  };
  // 0 -> 1 -> 0 cycle; 2 -> 3 acyclic.
  const Bdd rel = tr(0, 1) | tr(1, 0) | tr(2, 3);
  // νZ. Z ∧ pre(Z) starting from everything finds exactly the cycle.
  Bdd z = space.valid(Version::kCurrent);
  while (true) {
    const Bdd next = space.has_successor_in(rel, z);
    if (next == z) break;
    z = next;
  }
  EXPECT_EQ(z, st(0) | st(1));
  // live_core is that loop: two shrinking steps ({0,1,2}, then {0,1})
  // and one that confirms the fixpoint.
  std::uint64_t iterations = 0;
  std::vector<Bdd> peeled;
  EXPECT_EQ(space.live_core(rel, space.valid(Version::kCurrent), &iterations,
                            &peeled),
            z);
  EXPECT_EQ(iterations, 3u);
  ASSERT_EQ(peeled.size(), 2u);
  EXPECT_EQ(peeled[0], st(3));
  EXPECT_EQ(peeled[1], st(2));
  EXPECT_TRUE(space.live_core(rel, st(2) | st(3)).is_false());
}

TEST(SpaceTest, CountStatesAndTransitions) {
  Space space;
  const VarId a = space.add_variable("a", 3);
  const VarId b = space.add_variable("b", 2);
  (void)b;
  EXPECT_DOUBLE_EQ(space.count_states(space.bdd_true()), 6.0);
  EXPECT_DOUBLE_EQ(
      space.count_states(space.value_eq(a, 1, Version::kCurrent)), 2.0);
  // Identity has one transition per valid state.
  EXPECT_DOUBLE_EQ(space.count_transitions(space.identity()), 6.0);
  EXPECT_DOUBLE_EQ(space.count_transitions(space.bdd_true()), 36.0);
}

TEST(SpaceTest, ForeachStateEnumeratesValidStatesOnly) {
  Space space;
  (void)space.add_variable("a", 3);
  (void)space.add_variable("b", 2);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  space.foreach_state(space.bdd_true(),
                      [&](std::span<const std::uint32_t> v) {
                        seen.insert({v[0], v[1]});
                      });
  EXPECT_EQ(seen.size(), 6u);
  for (const auto& [a, b] : seen) {
    EXPECT_LT(a, 3u);
    EXPECT_LT(b, 2u);
  }
}

TEST(SpaceTest, ForeachTransitionDecodesBothEndpoints) {
  Space space;
  (void)space.add_variable("a", 3);
  const std::uint32_t from[1] = {2};
  const std::uint32_t to[1] = {0};
  const bdd::Bdd t = space.transition(from, to);
  int count = 0;
  space.foreach_transition(t, [&](std::span<const std::uint32_t> f,
                                  std::span<const std::uint32_t> g) {
    ++count;
    EXPECT_EQ(f[0], 2u);
    EXPECT_EQ(g[0], 0u);
  });
  EXPECT_EQ(count, 1);
}

TEST(SpaceTest, AddVariableAfterFreezeThrows) {
  Space space;
  (void)space.add_variable("a", 2);
  (void)space.identity();  // freezes
  EXPECT_THROW((void)space.add_variable("late", 2), std::logic_error);
}

TEST(SpaceTest, StateRejectsWrongArity) {
  Space space;
  (void)space.add_variable("a", 2);
  (void)space.add_variable("b", 2);
  const std::uint32_t too_few[1] = {0};
  EXPECT_THROW((void)space.state(too_few), std::invalid_argument);
}

TEST(SpaceTest, StateToString) {
  Space space;
  (void)space.add_variable("x", 4);
  (void)space.add_variable("y", 2);
  const std::uint32_t v[2] = {3, 1};
  EXPECT_EQ(space.state_to_string(v), "x=3, y=1");
}

}  // namespace
}  // namespace lr::sym
