// The verifier's livelock certificate (DESIGN.md §6 item 11): it decides on
// programs whose process graph is a DAG, it falls back to the νZ otherwise,
// and each way of breaking it loses the certificate while the verdict stays
// the νZ's.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "casestudies/chain.hpp"
#include "casestudies/token_ring.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"
#include "../support/realized_round.hpp"

namespace lr::repair {
namespace {

/// A repaired chain and the verifier's inputs for its livelock check.
struct Certified {
  std::unique_ptr<prog::DistributedProgram> program;
  RepairResult result;
  bdd::Bdd outside;  ///< the verifier's O = span − S'
  bdd::Bdd enabled;  ///< ∃x′. ∪_j δ_j
};

Certified repaired_chain() {
  Certified c;
  c.program = cs::make_chain({.length = 4, .domain = 3});
  c.result = lazy_repair(*c.program);
  EXPECT_TRUE(c.result.success) << c.result.failure_reason;
  sym::Space& space = c.program->space();
  c.outside = testgen::verifier_outside(*c.program, c.result.process_deltas,
                                        c.result.invariant);
  bdd::Bdd actions = space.bdd_false();
  for (const bdd::Bdd& dj : c.result.process_deltas) actions |= dj;
  c.enabled =
      space.manager().exists(actions, space.cube(sym::Version::kNext));
  return c;
}

/// verify_masking on `deltas` in place of the result's, with the verdict
/// the νZ alone gives on them.
struct Verdicts {
  VerifyReport report;
  bool nu_z_free = false;
};

Verdicts verify_with(Certified& c, const std::vector<bdd::Bdd>& deltas) {
  RepairResult mutated = c.result;
  mutated.process_deltas = deltas;
  Verdicts v;
  v.report = verify_masking(*c.program, mutated);
  v.nu_z_free = testgen::stuttering_livelock_states(
                    *c.program, deltas,
                    testgen::verifier_outside(*c.program, deltas,
                                              c.result.invariant))
                    .is_false();
  return v;
}

TEST(LivelockCertificateTest, ChainIsCertified) {
  Certified c = repaired_chain();
  const auto cert = find_livelock_certificate(*c.program, c.outside,
                                              c.result.process_deltas);
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(check_livelock_certificate(*c.program, c.outside, c.enabled,
                                         c.result.process_deltas, *cert));
  const VerifyReport report = verify_masking(*c.program, c.result);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.livelock_certified);
  EXPECT_TRUE(report.livelock_free);
}

TEST(LivelockCertificateTest, CyclicProcessGraphFallsBackToTheNuZ) {
  auto ring = cs::make_token_ring({.processes = 3, .domain = 3});
  const RepairResult result = lazy_repair(*ring);
  ASSERT_TRUE(result.success) << result.failure_reason;
  sym::Space& space = ring->space();
  const std::uint64_t lookups = space.manager().stats().cache_lookups;
  EXPECT_FALSE(find_livelock_certificate(*ring, space.bdd_true(),
                                         result.process_deltas)
                   .has_value());
  EXPECT_EQ(space.manager().stats().cache_lookups, lookups);
  const VerifyReport report = verify_masking(*ring, result);
  EXPECT_TRUE(report.ok);
  EXPECT_FALSE(report.livelock_certified);
  EXPECT_TRUE(report.livelock_free);
}

TEST(LivelockCertificateTest, RankThatDoesNotFallIsRejected) {
  Certified c = repaired_chain();
  const auto cert = find_livelock_certificate(*c.program, c.outside,
                                              c.result.process_deltas);
  ASSERT_TRUE(cert.has_value());
  bool mutated_any = false;
  for (std::size_t j = 0; j < cert->ranks.size(); ++j) {
    const bdd::Bdd moves = c.result.process_deltas[j] & c.outside &
                           c.program->space().prime(c.outside);
    if (moves.is_false()) continue;
    // One rank for every state: no step of δ_j inside O falls.
    LivelockCertificate flat = *cert;
    bdd::Bdd all = c.program->space().bdd_false();
    for (const bdd::Bdd& rank : flat.ranks[j]) all |= rank;
    flat.ranks[j] = {all};
    EXPECT_FALSE(check_livelock_certificate(*c.program, c.outside, c.enabled,
                                            c.result.process_deltas, flat))
        << "process " << j;
    // The same ranks in reverse order: every step rises.
    LivelockCertificate reversed = *cert;
    std::reverse(reversed.ranks[j].begin(), reversed.ranks[j].end());
    EXPECT_FALSE(check_livelock_certificate(*c.program, c.outside, c.enabled,
                                            c.result.process_deltas,
                                            reversed))
        << "process " << j;
    mutated_any = true;
  }
  EXPECT_TRUE(mutated_any);
  // Without the certificate, the νZ decides: the chain has no livelock.
  EXPECT_TRUE(verify_with(c, c.result.process_deltas).nu_z_free);
}

TEST(LivelockCertificateTest, RankOverHiddenVariablesIsRejected) {
  Certified c = repaired_chain();
  const auto cert = find_livelock_certificate(*c.program, c.outside,
                                              c.result.process_deltas);
  ASSERT_TRUE(cert.has_value());
  // Split each rank of process 0 by one value of the last process's
  // variable, which process 0 cannot read. δ_0 leaves that variable
  // unchanged, so its steps still fall; but the last process's steps could
  // now raise process 0's rank.
  sym::Space& space = c.program->space();
  const sym::VarId foreign = c.program->process(c.program->process_count() - 1)
                                 .writes.front();
  const sym::VarId foreign_vars[1] = {foreign};
  // pick_minterm's cube must hold the support, so project the valid
  // encodings onto the foreign variable first.
  std::vector<sym::VarId> others;
  for (sym::VarId v = 0; v < space.variable_count(); ++v) {
    if (v != foreign) others.push_back(v);
  }
  const bdd::Bdd foreign_valid = space.manager().exists(
      space.valid(sym::Version::kCurrent),
      space.cube_of(others, sym::Version::kCurrent));
  const bdd::Bdd value = space.manager().pick_minterm(
      foreign_valid, space.cube_of(foreign_vars, sym::Version::kCurrent));
  LivelockCertificate split = *cert;
  split.ranks[0].clear();
  for (const bdd::Bdd& rank : cert->ranks[0]) {
    split.ranks[0].push_back(rank & value);
    split.ranks[0].push_back(rank.minus(value));
  }
  EXPECT_FALSE(check_livelock_certificate(*c.program, c.outside, c.enabled,
                                          c.result.process_deltas, split));
}

TEST(LivelockCertificateTest, OrderThatBreaksAWriteEdgeIsRejected) {
  Certified c = repaired_chain();
  const auto cert = find_livelock_certificate(*c.program, c.outside,
                                              c.result.process_deltas);
  ASSERT_TRUE(cert.has_value());
  // The chain's graph is a path, so the reverse order breaks every edge.
  LivelockCertificate reversed = *cert;
  std::reverse(reversed.order.begin(), reversed.order.end());
  EXPECT_FALSE(check_livelock_certificate(*c.program, c.outside, c.enabled,
                                          c.result.process_deltas, reversed));
  // Not a permutation: one process in every place. The others are missing,
  // and an edge between two missing processes orders nothing.
  LivelockCertificate repeated = *cert;
  std::fill(repeated.order.begin(), repeated.order.end(),
            repeated.order.front());
  EXPECT_FALSE(check_livelock_certificate(*c.program, c.outside, c.enabled,
                                          c.result.process_deltas, repeated));
}

TEST(LivelockCertificateTest, StutterStepInOutsideLosesTheCertificate) {
  Certified c = repaired_chain();
  sym::Space& space = c.program->space();
  // Take every outgoing transition away from one state of O: it deadlocks,
  // and its stutter step is an infinite run that stays in O.
  const bdd::Bdd stuck = space.manager().pick_minterm(
      c.outside, space.cube(sym::Version::kCurrent));
  std::vector<bdd::Bdd> deltas = c.result.process_deltas;
  for (bdd::Bdd& dj : deltas) dj = dj.minus(stuck);
  const Verdicts v = verify_with(c, deltas);
  EXPECT_FALSE(v.report.livelock_certified);
  EXPECT_FALSE(v.nu_z_free);
  EXPECT_EQ(v.report.livelock_free, v.nu_z_free);
  EXPECT_FALSE(v.report.deadlock_free);
  // The checker alone rejects the original certificate once `enabled`
  // misses that state.
  const auto cert = find_livelock_certificate(*c.program, c.outside,
                                              c.result.process_deltas);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(check_livelock_certificate(*c.program, c.outside,
                                          c.enabled.minus(stuck),
                                          c.result.process_deltas, *cert));
}

TEST(LivelockCertificateTest, WriteOutsideTheWriteSetLosesTheCertificate) {
  Certified c = repaired_chain();
  sym::Space& space = c.program->space();
  // The last process also sets x0, which only process 0 may write. Its
  // own rank, over the variables it reads, still falls on every step; but
  // process 0's rank can now rise on its steps.
  std::vector<bdd::Bdd> deltas = c.result.process_deltas;
  const std::size_t last = deltas.size() - 1;
  const sym::VarId x0[1] = {c.program->process(0).writes.front()};
  deltas[last] = space.manager().exists(deltas[last], space.cube_pair_of(x0)) &
                 space.valid_pair();
  const Verdicts v = verify_with(c, deltas);
  EXPECT_FALSE(v.report.livelock_certified);
  EXPECT_EQ(v.report.livelock_free, v.nu_z_free);
  EXPECT_FALSE(v.report.realizable);
  // Ranks found on the mutated deltas pass every other check; the checker
  // rejects them for the write alone.
  const bdd::Bdd outside =
      testgen::verifier_outside(*c.program, deltas, c.result.invariant);
  bdd::Bdd actions = space.bdd_false();
  for (const bdd::Bdd& dj : deltas) actions |= dj;
  const bdd::Bdd enabled =
      space.manager().exists(actions, space.cube(sym::Version::kNext));
  const auto cert = find_livelock_certificate(*c.program, outside, deltas);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(
      check_livelock_certificate(*c.program, outside, enabled, deltas, *cert));
}

TEST(LivelockCertificateTest, SpanSaysWhichPathDecided) {
  const auto livelock_proof = [](prog::DistributedProgram& program) {
    const RepairResult result = lazy_repair(program);
    EXPECT_TRUE(result.success) << result.failure_reason;
    support::trace::start();
    (void)verify_masking(program, result);
    support::trace::stop();
    auto doc = support::json_parse(support::trace::to_chrome_json());
    if (!doc.has_value()) return std::string();
    for (const support::JsonValue& event : doc->find("traceEvents")->array) {
      const support::JsonValue* name = event.find("name");
      if (name == nullptr || name->string != "verify_masking") continue;
      const support::JsonValue* proof =
          event.find("args")->find("livelock_proof");
      return proof != nullptr ? proof->string : std::string();
    }
    return std::string();
  };
  auto chain = cs::make_chain({.length = 4, .domain = 3});
  EXPECT_EQ(livelock_proof(*chain), "certificate");
  auto ring = cs::make_token_ring({.processes = 3, .domain = 3});
  EXPECT_EQ(livelock_proof(*ring), "nu_z");
}

}  // namespace
}  // namespace lr::repair
