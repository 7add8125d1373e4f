// Sanity tests for the case-study model generators: state-space sizes,
// invariants, fault shapes, and repairability.

#include <gtest/gtest.h>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/token_ring.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"

namespace lr::cs {
namespace {

TEST(ByzantineModelTest, StateSpaceSize) {
  auto p = make_byzantine({.non_generals = 3});
  // b.g, d.g binary; per non-general b(2) * d(3) * f(2).
  EXPECT_DOUBLE_EQ(p->space().state_space_size(), 4.0 * 12 * 12 * 12);
  auto pfs = make_byzantine({.non_generals = 3, .fail_stop = true});
  EXPECT_DOUBLE_EQ(pfs->space().state_space_size(), 4.0 * 24 * 24 * 24);
}

TEST(ByzantineModelTest, InvariantShapes) {
  auto p = make_byzantine({.non_generals = 2});
  auto& sp = p->space();
  // Variables: b.g d.g (b d f) x2
  // All-bottom undecided state with nobody byzantine is legitimate.
  const std::uint32_t fresh[8] = {0, 0, 0, 2, 0, 0, 2, 0};
  EXPECT_TRUE(sp.state(fresh).leq(p->invariant()));
  // A finalized process disagreeing with an honest general is not.
  const std::uint32_t bad[8] = {0, 0, 0, 1, 1, 0, 2, 0};
  EXPECT_FALSE(sp.state(bad).leq(p->invariant()));
  EXPECT_TRUE(sp.state(bad).leq(p->safety().bad_states));
  // One byzantine non-general with the others consistent is legitimate.
  const std::uint32_t byz[8] = {0, 0, 1, 1, 1, 0, 0, 0};
  EXPECT_TRUE(sp.state(byz).leq(p->invariant()));
}

TEST(ByzantineModelTest, AtMostOneByzantine) {
  auto p = make_byzantine({.non_generals = 2});
  auto& sp = p->space();
  // From a state where p0 is byzantine, no fault can corrupt p1 too.
  const auto reach = p->reachable_under_faults();
  lang::Compiler compiler(sp);
  const auto two_byz = compiler.compile_bool(
      lang::Expr::var(2) == 1u && lang::Expr::var(5) == 1u);
  EXPECT_TRUE(reach.disjoint(two_byz));
}

TEST(ByzantineModelTest, FaultsPreserveInvariantMembershipCount) {
  auto p = make_byzantine({.non_generals = 2});
  auto& sp = p->space();
  // Byzantine-flag faults keep the state legitimate (the invariant covers
  // single-byzantine shapes); decision-lying may leave it.
  const auto inv = p->invariant();
  const auto after =
      sp.image(p->fault_action_deltas(), inv) &
      sp.valid(sym::Version::kCurrent);
  EXPECT_FALSE(after.is_false());
}

TEST(ChainModelTest, SizesAndInvariant) {
  auto p = make_chain({.length = 3, .domain = 4});
  EXPECT_DOUBLE_EQ(p->space().state_space_size(), 256.0);
  EXPECT_DOUBLE_EQ(p->space().count_states(p->invariant()), 4.0);
  EXPECT_TRUE(p->safety().bad_states.is_false());
  EXPECT_TRUE(p->safety().bad_trans.is_false());
}

TEST(ChainModelTest, EverythingReachableUnderFaults) {
  auto p = make_chain({.length = 4, .domain = 3});
  EXPECT_EQ(p->reachable_under_faults(),
            p->space().valid(sym::Version::kCurrent));
}

TEST(ChainModelTest, PropagationIsRealizableByConstruction) {
  auto p = make_chain({.length = 3, .domain = 3});
  for (std::size_t j = 0; j < p->process_count(); ++j) {
    EXPECT_TRUE(p->realizable_by_process(j, p->process_delta(j)));
  }
}

TEST(TokenRingModelTest, InvariantIsExactlyOneToken) {
  auto p = make_token_ring({.processes = 3, .domain = 3});
  auto& sp = p->space();
  // x = (0,0,0): root token only -> legitimate.
  const std::uint32_t all0[3] = {0, 0, 0};
  EXPECT_TRUE(sp.state(all0).leq(p->invariant()));
  // x = (1,0,0): p1 holds the token (root does not: x0 != x2) -> legit.
  const std::uint32_t one[3] = {1, 0, 0};
  EXPECT_TRUE(sp.state(one).leq(p->invariant()));
  // x = (2,0,1): tokens at p1 and p2 and root -> illegitimate.
  const std::uint32_t multi[3] = {2, 0, 1};
  EXPECT_FALSE(sp.state(multi).leq(p->invariant()));
}

TEST(TokenRingModelTest, TokenCirculatesInsideInvariant) {
  auto p = make_token_ring({.processes = 3, .domain = 3});
  auto& sp = p->space();
  // Within the invariant, the program moves and stays in the invariant.
  const auto inside = p->program_delta() & p->invariant();
  EXPECT_FALSE(inside.is_false());
  EXPECT_TRUE(sp.image({&inside, 1}, p->invariant()).leq(p->invariant()));
}

TEST(TokenRingModelTest, LazyRepairStabilizes) {
  auto p = make_token_ring({.processes = 3, .domain = 3});
  const auto result = repair::lazy_repair(*p);
  ASSERT_TRUE(result.success) << result.failure_reason;
  const auto report = repair::verify_masking(*p, result);
  EXPECT_TRUE(report.ok);
  for (const auto& f : report.failures) ADD_FAILURE() << f;
}

TEST(TokenRingModelTest, LargerRingStabilizes) {
  auto p = make_token_ring({.processes = 4, .domain = 5});
  const auto result = repair::lazy_repair(*p);
  ASSERT_TRUE(result.success) << result.failure_reason;
  const auto report = repair::verify_masking(*p, result);
  EXPECT_TRUE(report.ok);
}

TEST(TokenRingModelTest, RejectsDegenerateParameters) {
  EXPECT_THROW((void)make_token_ring({.processes = 1}), std::invalid_argument);
  EXPECT_THROW((void)make_token_ring({.processes = 3, .domain = 1}),
               std::invalid_argument);
}

TEST(ChainModelTest, RejectsDegenerateParameters) {
  EXPECT_THROW((void)make_chain({.length = 0}), std::invalid_argument);
  EXPECT_THROW((void)make_chain({.length = 2, .domain = 1}),
               std::invalid_argument);
}

TEST(ByzantineModelTest, RejectsDegenerateParameters) {
  EXPECT_THROW((void)make_byzantine({.non_generals = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lr::cs
