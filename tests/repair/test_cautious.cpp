// Tests for the cautious-repair baseline, its agreement with lazy repair,
// and its one-∀ group closure against the enumeration of ref [2].
//
// Environment knobs (fuzz sweep of the closure test):
//   LR_FUZZ_SEED=N     base seed (model i uses seed N+i); default 20160523
//   LR_FUZZ_MODELS=N   models per topology x fault class; default 64

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "casestudies/byzantine.hpp"
#include "repair/cautious.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"
#include "support/rng.hpp"
#include "../support/group_loops.hpp"
#include "../support/model_gen.hpp"

namespace lr::repair {
namespace {

using lang::Expr;
using lang::action;

TEST(CautiousRepairTest, ByzantineAgreementVerified) {
  auto p = cs::make_byzantine({.non_generals = 3});
  const RepairResult r = cautious_repair(*p);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const VerifyReport report = verify_masking(*p, r);
  EXPECT_TRUE(report.ok);
  for (const auto& f : report.failures) ADD_FAILURE() << f;
}

TEST(CautiousRepairTest, AgreesWithLazyOnSolvability) {
  // Both algorithms must agree that BA^3 is repairable and that a doomed
  // program is not.
  auto p = cs::make_byzantine({.non_generals = 3});
  EXPECT_TRUE(cautious_repair(*p).success);
  auto p2 = cs::make_byzantine({.non_generals = 3});
  EXPECT_TRUE(lazy_repair(*p2).success);

  auto doomed = std::make_unique<prog::DistributedProgram>("doomed");
  const sym::VarId x = doomed->add_variable("x", 2);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  doomed->add_process(std::move(proc));
  doomed->add_fault(
      action("kill", Expr::var(x) == 0u).assign(x, Expr::constant(1)));
  doomed->set_invariant(Expr::var(x) == 0u);
  doomed->add_bad_states(Expr::var(x) == 1u);
  EXPECT_FALSE(cautious_repair(*doomed).success);
  auto doomed2 = std::make_unique<prog::DistributedProgram>("doomed2");
  const sym::VarId y = doomed2->add_variable("x", 2);
  prog::Process proc2;
  proc2.name = "p";
  proc2.reads = {y};
  proc2.writes = {y};
  doomed2->add_process(std::move(proc2));
  doomed2->add_fault(
      action("kill", Expr::var(y) == 0u).assign(y, Expr::constant(1)));
  doomed2->set_invariant(Expr::var(y) == 0u);
  doomed2->add_bad_states(Expr::var(y) == 1u);
  EXPECT_FALSE(lazy_repair(*doomed2).success);
}

TEST(CautiousRepairTest, InvariantIsRicherThanLazy) {
  // A structural observation the benchmarks rely on: cautious's tolerance
  // restarts give it at least as many legitimate states on BA.
  auto p1 = cs::make_byzantine({.non_generals = 3});
  const RepairResult cautious = cautious_repair(*p1);
  auto p2 = cs::make_byzantine({.non_generals = 3});
  const RepairResult lazy = lazy_repair(*p2);
  ASSERT_TRUE(cautious.success);
  ASSERT_TRUE(lazy.success);
  EXPECT_GE(p1->space().count_states(cautious.invariant),
            p2->space().count_states(lazy.invariant));
}

TEST(CautiousRepairTest, FailStopVariantVerified) {
  auto p = cs::make_byzantine({.non_generals = 2, .fail_stop = true});
  const RepairResult r = cautious_repair(*p);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(verify_masking(*p, r).ok);
}

TEST(CautiousRepairTest, LazyTakesFewerLookupsThanCautiousOnTableOne) {
  // Table I's shape: on BA^3 through BA^6 lazy repair does less work than
  // the cautious baseline, with both realizing groups by one ∀ per process.
  for (const std::size_t n : {3, 4, 5, 6}) {
    auto p1 = cs::make_byzantine({.non_generals = n});
    const RepairResult lazy = lazy_repair(*p1);
    auto p2 = cs::make_byzantine({.non_generals = n});
    const RepairResult cautious = cautious_repair(*p2);
    ASSERT_TRUE(lazy.success) << "BA^" << n;
    ASSERT_TRUE(cautious.success) << "BA^" << n;
    EXPECT_LT(lazy.stats.bdd.cache_lookups, cautious.stats.bdd.cache_lookups)
        << "BA^" << n;
  }
}

// --- Differential test: tolerant_groups against one group at a time -------

/// Calls tolerant_groups beside the enumeration in the three shapes
/// cautious_repair's first round uses (invariant behavior, candidate
/// recovery, recovery that reaches S), with the fault-intolerant reach
/// and with no unreachable-member tolerance. Adds to `pruned` the calls
/// where the closure dropped some seed.
void expect_tolerant_groups_match_loop(prog::DistributedProgram& p,
                                       const std::string& what,
                                       std::size_t& pruned) {
  sym::Space& space = p.space();
  const bdd::Bdd s1 = p.invariant();
  const bdd::Bdd not_bad = ~p.safety().bad_trans;
  const bdd::Bdd inv_zone = s1 & space.prime(s1) & not_bad;
  const Options options;
  for (const bool tolerate : {true, false}) {
    const bdd::Bdd reach =
        tolerate ? p.reachable_under_faults() : space.bdd_true();
    const bdd::Bdd rec_zone =
        space.valid(sym::Version::kCurrent).minus(s1) &
        space.prime(s1 | reach) & space.valid_pair() & not_bad &
        ~space.identity();
    for (std::size_t j = 0; j < p.process_count(); ++j) {
      const auto check = [&](const bdd::Bdd& candidate, const bdd::Bdd& zone,
                             const char* shape) {
        const bdd::Bdd closed =
            tolerant_groups(p, j, candidate, zone, reach, shape, options);
        EXPECT_TRUE(closed ==
                    testgen::tolerant_group_loop(p, j, candidate, zone, reach))
            << what << " " << shape << (tolerate ? "" : " (no tolerance)")
            << ": process " << j;
        if (!(candidate & zone).leq(closed)) ++pruned;
        return closed;
      };
      const bdd::Bdd delta_j = p.process_delta(j);
      (void)check(delta_j, inv_zone & delta_j, "invariant");
      const bdd::Bdd cand = rec_zone & p.respects_write(j);
      const bdd::Bdd rec = check(cand, cand, "recovery");
      (void)check(rec, rec & space.prime(s1), "layers");
    }
  }
}

TEST(TolerantGroupsTest, CaseStudiesMatchOneGroupAtATime) {
  std::size_t pruned = 0;
  auto ba = cs::make_byzantine({.non_generals = 3});
  expect_tolerant_groups_match_loop(*ba, "BA^3", pruned);
  auto bafs = cs::make_byzantine({.non_generals = 3, .fail_stop = true});
  expect_tolerant_groups_match_loop(*bafs, "BAFS^3", pruned);
  EXPECT_GT(pruned, 0u);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

TEST(TolerantGroupsTest, RandomModelsMatchOneGroupAtATime) {
  const std::uint64_t base = env_u64("LR_FUZZ_SEED", 20160523ull);
  const std::size_t per_shard =
      static_cast<std::size_t>(env_u64("LR_FUZZ_MODELS", 64));
  std::size_t pruned = 0;
  for (const char* topology : {"random", "ring", "tree", "star"}) {
    for (const char* faults : {"havoc", "corrupt"}) {
      ::setenv("LR_FUZZ_TOPOLOGY", topology, 1);
      ::setenv("LR_FUZZ_FAULTS", faults, 1);
      for (std::size_t i = 0; i < per_shard; ++i) {
        const std::uint64_t seed = testgen::model_seed(base, i);
        support::SplitMix64 rng(seed);
        const std::unique_ptr<prog::DistributedProgram> p =
            testgen::random_program(rng);
        expect_tolerant_groups_match_loop(
            *p,
            std::string(topology) + "/" + faults + " seed " +
                std::to_string(seed),
            pruned);
        if (::testing::Test::HasFailure()) {
          std::fprintf(stderr,
                       "[fuzz] repro: LR_FUZZ_SEED=%llu LR_FUZZ_MODELS=1 "
                       "./test_cautious --gtest_filter='*RandomModels*' "
                       "(mismatch under %s/%s)\n",
                       static_cast<unsigned long long>(seed), topology,
                       faults);
          ::unsetenv("LR_FUZZ_TOPOLOGY");
          ::unsetenv("LR_FUZZ_FAULTS");
          return;
        }
      }
    }
  }
  ::unsetenv("LR_FUZZ_TOPOLOGY");
  ::unsetenv("LR_FUZZ_FAULTS");
  EXPECT_GT(pruned, 0u);
}

}  // namespace
}  // namespace lr::repair
