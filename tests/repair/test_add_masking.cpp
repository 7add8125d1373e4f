// Unit tests for Step 1 (Add-Masking without realizability constraints),
// and a differential test of add_masking against Step 1 written over the
// full P1 relation.
//
// Environment knobs (fuzz sweep of the differential test):
//   LR_FUZZ_SEED=N     base seed (model i uses seed N+i); default 20160523
//   LR_FUZZ_MODELS=N   models per topology x fault class; default 16

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "lang/parser.hpp"
#include "program/distributed_program.hpp"
#include "repair/add_masking.hpp"
#include "repair/relation_setup.hpp"
#include "support/rng.hpp"
#include "../support/model_gen.hpp"

namespace lr::repair {
namespace {

using lang::Expr;
using lang::action;

StepOneResult run(prog::DistributedProgram& p, const Options& options = {}) {
  Stats stats;
  return add_masking(p, p.invariant(), p.space().bdd_false(), bdd::Bdd(),
                     options, stats);
}

/// x ∈ {0..2}; invariant x=0; fault bumps x to 1; process can reset from 1.
/// From 2 there is no return, and a bad state sits at x=2.
std::unique_ptr<prog::DistributedProgram> make_micro() {
  auto p = std::make_unique<prog::DistributedProgram>("micro");
  const sym::VarId x = p->add_variable("x", 3);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  proc.actions.push_back(
      action("reset", Expr::var(x) == 1u).assign(x, Expr::constant(0)));
  p->add_process(std::move(proc));
  p->add_fault(action("bump", Expr::var(x) == 0u).assign(x, Expr::constant(1)));
  p->set_invariant(Expr::var(x) == 0u);
  p->add_bad_states(Expr::var(x) == 2u);
  return p;
}

TEST(AddMaskingTest, MicroModelKeepsInvariantAndRecovers) {
  auto p = make_micro();
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.invariant, p->invariant());
  // Fault span: {0, 1} (2 is a bad state, never reached).
  EXPECT_DOUBLE_EQ(sp.count_states(r.fault_span), 2.0);
  // Recovery 1 -> 0 is in δ'; no transition enters the bad state.
  const std::uint32_t one[1] = {1};
  const std::uint32_t zero[1] = {0};
  const std::uint32_t two[1] = {2};
  EXPECT_TRUE(sp.transition(one, zero).leq(r.delta));
  EXPECT_TRUE(r.delta.disjoint(sp.prime(sp.state(two))));
}

TEST(AddMaskingTest, FailsWhenFaultsForceBadStates) {
  // Fault jumps straight from the invariant to the bad state: ms swallows
  // the invariant, no repair exists.
  auto p = std::make_unique<prog::DistributedProgram>("doomed");
  const sym::VarId x = p->add_variable("x", 2);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  p->add_process(std::move(proc));
  p->add_fault(
      action("kill", Expr::var(x) == 0u).assign(x, Expr::constant(1)));
  p->set_invariant(Expr::var(x) == 0u);
  p->add_bad_states(Expr::var(x) == 1u);
  const StepOneResult r = run(*p);
  EXPECT_FALSE(r.success);
}

TEST(AddMaskingTest, FailsWhenAFaultSequenceForcesBadStates) {
  // Each fault step is safe, but three in a row reach the bad state x = 3
  // from the invariant x = 0: ms must close backward under the faults and
  // swallow the invariant.
  auto p = std::make_unique<prog::DistributedProgram>("fault_chain");
  const sym::VarId x = p->add_variable("x", 4);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  proc.actions.push_back(
      action("reset", Expr::var(x) == 1u || Expr::var(x) == 2u)
          .assign(x, Expr::constant(0)));
  p->add_process(std::move(proc));
  p->add_fault(action("bump", Expr::var(x) != 3u)
                   .assign(x, Expr::var(x) + Expr::constant(1)));
  p->set_invariant(Expr::var(x) == 0u);
  p->add_bad_states(Expr::var(x) == 3u);
  sym::Space& space = p->space();
  const bdd::Bdd valid = space.valid(sym::Version::kCurrent);
  EXPECT_EQ(fault_unsafe_states(*p, p->safety().bad_states,
                                p->safety().bad_trans, valid, nullptr),
            valid);
  // The closure stays inside `within`: without x = 2 the chain is cut.
  const bdd::Bdd no_two =
      valid.minus(space.value_eq(x, 2, sym::Version::kCurrent));
  EXPECT_EQ(fault_unsafe_states(*p, p->safety().bad_states,
                                p->safety().bad_trans, no_two, nullptr),
            space.value_eq(x, 3, sym::Version::kCurrent));
  EXPECT_FALSE(run(*p).success);
}

TEST(AddMaskingTest, FailsOnEmptyInvariant) {
  auto p = std::make_unique<prog::DistributedProgram>("empty");
  const sym::VarId x = p->add_variable("x", 2);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  p->add_process(std::move(proc));
  p->set_invariant(Expr::bool_const(false));
  const StepOneResult r = run(*p);
  EXPECT_FALSE(r.success);
}

TEST(AddMaskingTest, InvariantClosedAndSafeUnderDelta) {
  auto p = cs::make_byzantine({.non_generals = 3});
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  // Closure of S' under δ'.
  EXPECT_TRUE(sp.image({&r.delta, 1}, r.invariant).leq(r.invariant));
  // S' ⊆ S and δ'|S' ⊆ δ_P|S'.
  EXPECT_TRUE(r.invariant.leq(p->invariant()));
  EXPECT_TRUE((r.delta & r.invariant & sp.prime(r.invariant))
                  .leq(p->program_delta()));
  // δ' avoids bad states and transitions entirely.
  EXPECT_TRUE(r.delta.disjoint(p->safety().bad_trans));
  EXPECT_TRUE(r.delta.disjoint(sp.prime(p->safety().bad_states)));
}

TEST(AddMaskingTest, SpanClosedUnderFaultsAndDelta) {
  auto p = cs::make_byzantine({.non_generals = 3});
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(
      sp.image(p->fault_action_deltas(), r.fault_span).leq(r.fault_span));
  EXPECT_TRUE(sp.image({&r.delta, 1}, r.fault_span).leq(r.fault_span));
}

TEST(AddMaskingTest, EverySpanStateReachesInvariant) {
  auto p = cs::make_byzantine({.non_generals = 3});
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  // Backward reachability of S' under δ': the least fixpoint of preimages.
  bdd::Bdd reaches = r.invariant;
  while (true) {
    const bdd::Bdd grown = reaches | sp.preimage({&r.delta, 1}, reaches);
    if (grown == reaches) break;
    reaches = grown;
  }
  EXPECT_TRUE(r.fault_span.leq(reaches));
}

TEST(AddMaskingTest, NoSelfLoopsOutsideInvariant) {
  auto p = cs::make_chain({.length = 3, .domain = 3});
  auto& sp = p->space();
  const StepOneResult r = run(*p);
  ASSERT_TRUE(r.success);
  const bdd::Bdd outside = r.fault_span.minus(r.invariant);
  EXPECT_TRUE((r.delta & sp.identity()).disjoint(outside));
}

TEST(AddMaskingTest, HeuristicOffExploresWholeSpace) {
  auto p1 = cs::make_chain({.length = 3, .domain = 2});
  Options restricted;
  Stats stats_on;
  const StepOneResult on = add_masking(*p1, p1->invariant(),
                                       p1->space().bdd_false(), bdd::Bdd(),
                                       restricted, stats_on);
  auto p2 = cs::make_chain({.length = 3, .domain = 2});
  Options full;
  full.restrict_to_reachable = false;
  Stats stats_off;
  const StepOneResult off = add_masking(*p2, p2->invariant(),
                                        p2->space().bdd_false(), bdd::Bdd(),
                                        full, stats_off);
  ASSERT_TRUE(on.success);
  ASSERT_TRUE(off.success);
  // For the chain, faults reach everything, so both agree.
  EXPECT_DOUBLE_EQ(stats_on.reachable_states, stats_off.reachable_states);
  EXPECT_DOUBLE_EQ(p1->space().count_states(on.invariant),
                   p2->space().count_states(off.invariant));
}

TEST(AddMaskingTest, ExtraBadTransitionsAreRespected) {
  auto p = make_micro();
  auto& sp = p->space();
  // Ban the recovery transition 1 -> 0: repair becomes impossible (faults
  // still push 0 -> 1 and 1 cannot idle forever).
  const std::uint32_t one[1] = {1};
  const std::uint32_t zero[1] = {0};
  const bdd::Bdd ban = sp.transition(one, zero);
  Stats stats;
  Options options;
  const StepOneResult r =
      add_masking(*p, p->invariant(), ban, bdd::Bdd(), options, stats);
  EXPECT_FALSE(r.success);
}

TEST(AddMaskingTest, ReportsLayerAndRoundStatistics) {
  auto p = cs::make_chain({.length = 4, .domain = 2});
  Stats stats;
  Options options;
  const StepOneResult r = add_masking(*p, p->invariant(),
                                      p->space().bdd_false(), bdd::Bdd(),
                                      options, stats);
  ASSERT_TRUE(r.success);
  EXPECT_GE(stats.addmasking_rounds, 1u);
  EXPECT_GE(stats.recovery_layers, 1u);
  EXPECT_GT(stats.reachable_states, 0.0);
  EXPECT_GT(stats.span_states, 0.0);
  EXPECT_GT(stats.invariant_states, 0.0);
}

// --- Differential test: add_masking vs the full-P1 formulation -------------

/// Test-only reference: Step 1 with every fixpoint over the whole
/// P1 = ∪ᵢ (pieceᵢ ∧ S1 ∧ S1′) ∪ rec_part. The can-recover BFS and the
/// recovery layers take P1 as a relation, the layers' transitions come
/// from P1 as one BDD (the union of its parts), and the closure runs over
/// P1 ∧ S2′, one part per part of P1.
/// add_masking runs each fixpoint over only the part of P1 that can fire
/// in it; the sets must not change.
StepOneResult full_p1_step_one(prog::DistributedProgram& program,
                               ToleranceLevel level) {
  sym::Space& space = program.space();
  const bdd::Bdd delta_p = program.program_delta();
  const bdd::Bdd valid_pair = space.valid_pair();
  const bool use_safety = level != ToleranceLevel::kNonmasking;
  const bdd::Bdd bad_states =
      use_safety ? program.safety().bad_states : space.bdd_false();
  const bdd::Bdd bad_trans =
      use_safety ? program.safety().bad_trans : space.bdd_false();
  const bdd::Bdd s_orig = program.invariant();
  bdd::Bdd writable = space.bdd_false();
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    writable |= program.respects_write(j);
  }
  StepOneResult result;
  if (s_orig.is_false()) return result;

  const bdd::Bdd context =
      space.forward_reachable(program_fault_relation(program), s_orig);
  const bdd::Bdd ms =
      fault_unsafe_states(program, bad_states, bad_trans, context, nullptr);
  const bdd::Bdd mt = (bad_trans | space.prime(ms)) & valid_pair;
  std::vector<bdd::Bdd> pieces_mt;
  for (const bdd::Bdd& piece : program_delta_pieces(program)) {
    const bdd::Bdd trimmed = piece.minus(mt);
    if (!trimmed.is_false()) pieces_mt.push_back(trimmed);
  }
  bdd::Bdd s1 = space.live_core(pieces_mt, s_orig.minus(ms));
  bdd::Bdd t1 = context.minus(ms);
  if (s1.is_false()) return result;

  std::vector<bdd::Bdd> p1_parts;
  while (true) {
    const bdd::Bdd rec_part =
        (writable & t1.minus(s1) & space.prime(t1) & valid_pair)
            .minus(mt)
            .minus(space.identity());
    const bdd::Bdd inv_cross = s1 & space.prime(s1);
    p1_parts.clear();
    for (const bdd::Bdd& piece : pieces_mt) {
      p1_parts.push_back(piece & inv_cross);
    }
    if (!rec_part.is_false()) p1_parts.push_back(rec_part);
    const bdd::Bdd t2 = level == ToleranceLevel::kFailsafe
                            ? t1
                            : recoverable_span(program, p1_parts, s1, t1,
                                               nullptr);
    bdd::Bdd s2 = s1 & t2;
    const bdd::Bdd s2_primed = space.prime(s2);
    std::vector<bdd::Bdd> closure_parts;
    for (const bdd::Bdd& part : p1_parts) {
      closure_parts.push_back(part & s2_primed);
    }
    s2 = space.live_core(closure_parts, s2);
    if (s2.is_false()) return result;
    if (s2 == s1 && t2 == t1) break;
    s1 = s2;
    t1 = t2;
  }

  const bdd::Bdd outside = t1.minus(s1);
  bdd::Bdd below = s1;
  bdd::Bdd added = space.bdd_false();
  bdd::Bdd remaining =
      level == ToleranceLevel::kFailsafe ? space.bdd_false() : outside;
  bdd::Bdd p1_flat = space.bdd_false();
  for (const bdd::Bdd& part : p1_parts) p1_flat |= part;
  while (!remaining.is_false()) {
    const bdd::Bdd layer = space.preimage(p1_parts, below) & remaining;
    if (layer.is_false()) break;
    added |= p1_flat & layer & space.prime(below);
    below |= layer;
    remaining = remaining.minus(layer);
  }
  result.success = true;
  result.invariant = s1;
  result.fault_span = t1;
  result.delta =
      (delta_p & s1 & space.prime(s1)).minus(mt) |
      (delta_p & outside & space.prime(t1)).minus(mt).minus(space.identity()) |
      added;
  return result;
}

constexpr ToleranceLevel kLevels[] = {ToleranceLevel::kMasking,
                                      ToleranceLevel::kFailsafe,
                                      ToleranceLevel::kNonmasking};

/// Runs add_masking and the reference on `program` at `level` and expects
/// the same outcome and sets. Returns whether Step 1 succeeded.
bool expect_matches_full_p1(prog::DistributedProgram& program,
                            ToleranceLevel level, const std::string& what) {
  const StepOneResult reference = full_p1_step_one(program, level);
  Options options;
  options.level = level;
  const StepOneResult actual = run(program, options);
  const std::string where =
      what + " at " + tolerance_level_name(level);
  EXPECT_EQ(actual.success, reference.success) << where;
  if (!actual.success || !reference.success) return false;
  EXPECT_EQ(actual.invariant, reference.invariant) << where;
  EXPECT_EQ(actual.fault_span, reference.fault_span) << where;
  EXPECT_EQ(actual.delta, reference.delta) << where;
  return true;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

TEST(AddMaskingTest, MatchesTheFullP1Formulation) {
  const std::uint64_t base = env_u64("LR_FUZZ_SEED", 20160523ull);
  const std::size_t per_shard =
      static_cast<std::size_t>(env_u64("LR_FUZZ_MODELS", 16));
  std::size_t compared = 0;
  for (const char* topology : {"random", "ring", "tree", "star"}) {
    for (const char* faults : {"havoc", "corrupt"}) {
      ::setenv("LR_FUZZ_TOPOLOGY", topology, 1);
      ::setenv("LR_FUZZ_FAULTS", faults, 1);
      for (std::size_t i = 0; i < per_shard; ++i) {
        const std::uint64_t seed = testgen::model_seed(base, i);
        for (const ToleranceLevel level : kLevels) {
          support::SplitMix64 rng(seed);
          const std::unique_ptr<prog::DistributedProgram> program =
              testgen::random_program(rng);
          const std::string what = std::string(topology) + "/" + faults +
                                   " seed " + std::to_string(seed);
          if (expect_matches_full_p1(*program, level, what)) ++compared;
        }
        if (::testing::Test::HasFailure()) {
          std::fprintf(stderr,
                       "[fuzz] repro: LR_FUZZ_SEED=%llu LR_FUZZ_MODELS=1 "
                       "./test_add_masking --gtest_filter='*FullP1*' "
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
  // A sweep where Step 1 never succeeds compares nothing.
  EXPECT_GT(compared, per_shard);

  // Step 1 must succeed on every case study, so each comparison counts.
  for (const ToleranceLevel level : kLevels) {
    for (const std::string model : {"tmr", "quickstart", "mutex_ring"}) {
      auto program = lang::parse_program_file(
          std::string(LR_SOURCE_DIR) + "/models/" + model + ".lr");
      EXPECT_TRUE(expect_matches_full_p1(*program, level, model));
    }
    auto chain = cs::make_chain({.length = 4, .domain = 8});
    EXPECT_TRUE(expect_matches_full_p1(*chain, level, "Sc^4 d8"));
    auto byzantine = cs::make_byzantine({.non_generals = 3});
    EXPECT_TRUE(expect_matches_full_p1(*byzantine, level, "BA^3"));
  }
}

}  // namespace
}  // namespace lr::repair
