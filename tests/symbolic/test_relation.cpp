// Differential suite for the scheduled transition relation
// (sym::TransitionRelation), the engine's one relation representation:
// its image, preimage, has_successor_in and forward_reachable overloads
// must compute exactly the sets the flat bdd::Bdd and span overloads
// compute over the same parts. The flat reference is rebuilt here from
// each part's conjuncts, so a wrong early-quantification cube, a dropped
// conjunct or a bad combined and-exists all show up as a set mismatch.
//
// Covered: random parts with 1, 2 and 3 conjuncts, a one-part relation,
// the empty fault list, the relations the repair layer builds for every
// case study (also under intra sharding), and seeded random models across
// every LR_FUZZ_TOPOLOGY x LR_FUZZ_FAULTS combination.
//
// Environment knobs (fuzz sweep):
//   LR_FUZZ_SEED=N     base seed (model i uses seed N+i); default 20160523
//   LR_FUZZ_MODELS=N   models per topology x fault-class combination;
//                      default 16 (x 4 topologies x 2 fault classes = 128)
//
// On a mismatch the sweep prints the failing seed and a one-line repro,
// LR_FUZZ_SEED=<seed> LR_FUZZ_MODELS=1 LR_FUZZ_TOPOLOGY=<t>
// LR_FUZZ_FAULTS=<f> ./test_relation --gtest_filter='*Fuzz*'

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/parser.hpp"
#include "program/distributed_program.hpp"
#include "repair/relation_setup.hpp"
#include "support/rng.hpp"
#include "symbolic/relation.hpp"
#include "../support/model_gen.hpp"

namespace lr::sym {
namespace {

/// The flat reference of `rel`: one materialized BDD per part (its
/// conjuncts conjoined) and their union.
struct FlatReference {
  std::vector<bdd::Bdd> parts;
  bdd::Bdd whole;
};

FlatReference flatten(Space& space, const TransitionRelation& rel) {
  FlatReference flat;
  flat.whole = space.bdd_false();
  for (const RelationPart& part : rel.parts()) {
    bdd::Bdd conjunction = space.bdd_true();
    for (const bdd::Bdd& conjunct : part.conjuncts) conjunction &= conjunct;
    flat.whole |= conjunction;
    flat.parts.push_back(std::move(conjunction));
  }
  return flat;
}

/// Compares every relation-aware overload with the flat ones on `probe`.
/// Returns the number of mismatches (each also reported as a failure).
int expect_matches_flat(Space& space, const TransitionRelation& rel,
                        const bdd::Bdd& probe, const std::string& what) {
  const FlatReference flat = flatten(space, rel);
  const std::span<const bdd::Bdd> parts(flat.parts);
  int mismatches = 0;
  const auto check = [&](const bdd::Bdd& scheduled,
                         std::initializer_list<bdd::Bdd> references,
                         const char* op) {
    int reference = 0;
    for (const bdd::Bdd& expected : references) {
      EXPECT_EQ(scheduled, expected)
          << what << ": " << op << " vs flat reference " << reference++;
      if (scheduled != expected) ++mismatches;
    }
  };
  check(space.image(rel, probe),
        {space.image(flat.whole, probe), space.image(parts, probe)}, "image");
  check(space.preimage(rel, probe),
        {space.preimage(flat.whole, probe), space.preimage(parts, probe)},
        "preimage");
  check(space.has_successor_in(rel, probe),
        {space.has_successor_in(flat.whole, probe),
         space.has_successor_in(parts, probe),
         space.has_successor_in_local(flat.whole, probe)},
        "has_successor_in");
  check(space.forward_reachable(rel, probe),
        {space.forward_reachable(flat.whole, probe),
         space.forward_reachable(parts, probe)},
        "forward_reachable");
  return mismatches;
}

/// A random set of `count` valid states.
bdd::Bdd random_states(Space& space, support::SplitMix64& rng,
                       std::size_t count) {
  bdd::Bdd set = space.bdd_false();
  std::vector<std::uint32_t> values(space.variable_count());
  for (std::size_t i = 0; i < count; ++i) {
    for (VarId v = 0; v < space.variable_count(); ++v) {
      values[v] = static_cast<std::uint32_t>(rng.below(space.info(v).domain));
    }
    set |= space.state(values);
  }
  return set;
}

/// A random relation of `count` valid transitions.
bdd::Bdd random_transitions(Space& space, support::SplitMix64& rng,
                            std::size_t count) {
  bdd::Bdd rel = space.bdd_false();
  std::vector<std::uint32_t> from(space.variable_count());
  std::vector<std::uint32_t> to(space.variable_count());
  for (std::size_t i = 0; i < count; ++i) {
    for (VarId v = 0; v < space.variable_count(); ++v) {
      const std::uint32_t domain = space.info(v).domain;
      from[v] = static_cast<std::uint32_t>(rng.below(domain));
      to[v] = static_cast<std::uint32_t>(rng.below(domain));
    }
    rel |= space.transition(from, to);
  }
  return rel;
}

/// Probes: the empty set, every valid state and a few random sets.
std::vector<bdd::Bdd> probes(Space& space, support::SplitMix64& rng) {
  std::vector<bdd::Bdd> out = {space.bdd_false(),
                               space.valid(Version::kCurrent)};
  for (const std::size_t count : {1u, 4u, 16u}) {
    out.push_back(random_states(space, rng, count));
  }
  return out;
}

/// Random relations whose parts have `conjuncts` factors each: a random
/// transition set, then constraints on the pre- and post-state (the shapes
/// of Add-Masking's `piece ∧ S1 ∧ S1'` and `... ∧ S2'` parts).
void expect_random_parts_match(std::size_t conjuncts, std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  Space space;
  (void)space.add_variable("a", 3);
  (void)space.add_variable("b", 4);
  (void)space.add_variable("c", 2);
  for (int round = 0; round < 6; ++round) {
    TransitionRelation rel(space);
    for (int p = 0; p < 3; ++p) {
      std::vector<bdd::Bdd> factors = {random_transitions(space, rng, 12)};
      if (conjuncts >= 2) {
        const bdd::Bdd s = random_states(space, rng, 12);
        factors.push_back(s & space.prime(s));
      }
      if (conjuncts >= 3) {
        factors.push_back(space.prime(random_states(space, rng, 12)));
      }
      rel.add_part(factors);
    }
    for (const bdd::Bdd& probe : probes(space, rng)) {
      expect_matches_flat(space, rel, probe,
                          std::to_string(conjuncts) + " conjuncts, round " +
                              std::to_string(round));
    }
  }
}

TEST(RelationDifferentialTest, OneConjunctParts) {
  expect_random_parts_match(1, 11);
}

TEST(RelationDifferentialTest, TwoConjunctParts) {
  expect_random_parts_match(2, 22);
}

TEST(RelationDifferentialTest, ThreeConjunctParts) {
  expect_random_parts_match(3, 33);
}

// One process and no faults: the program relation has a single natural
// part, and the fault relation has none.
constexpr const char* kOneProcessNoFaults = R"(
program solo;
var x : 0..3;
var y : 0..1;
process worker {
  reads x, y;
  writes x;
  action up: x < 3 && y == 1 -> x := x + 1;
  action reset: x == 3 -> x := 0;
}
invariant x == 0;
)";

TEST(RelationDifferentialTest, OnePartRelation) {
  auto program = lang::parse_program(kOneProcessNoFaults);
  Space& space = program->space();
  support::SplitMix64 rng(44);
  const bdd::Bdd delta = program->program_delta();
  const TransitionRelation single =
      TransitionRelation::partitioned(space, std::span(&delta, 1));
  ASSERT_EQ(single.part_count(), 1u);
  const TransitionRelation natural = repair::program_fault_relation(*program);
  for (const bdd::Bdd& probe : probes(space, rng)) {
    expect_matches_flat(space, single, probe, "one part");
    expect_matches_flat(space, natural, probe, "one process, no faults");
  }
}

TEST(RelationDifferentialTest, EmptyFaultList) {
  auto program = lang::parse_program(kOneProcessNoFaults);
  Space& space = program->space();
  ASSERT_TRUE(program->fault_action_deltas().empty());
  const TransitionRelation faults = repair::fault_relation(*program);
  const TransitionRelation empty(space);
  const bdd::Bdd start = program->invariant();
  // No fault steps: nothing is a fault successor or predecessor, and fault
  // reachability is the identity.
  EXPECT_TRUE(space.image(faults, start).is_false());
  EXPECT_TRUE(space.preimage(faults, start).is_false());
  EXPECT_EQ(space.forward_reachable(faults, start), start);
  EXPECT_TRUE(space.image(empty, start).is_false());
  EXPECT_EQ(space.forward_reachable(empty, start), start);
  support::SplitMix64 rng(55);
  for (const bdd::Bdd& probe : probes(space, rng)) {
    expect_matches_flat(space, faults, probe, "empty fault list");
    expect_matches_flat(space, empty, probe, "no parts");
  }
}

/// The relations the repair layer builds for `program`: δ_P ∪ f and f as
/// one-conjunct parts, and the program pieces restricted to the invariant
/// (two conjuncts) and additionally to a reachable post-state (three).
int expect_program_relations_match(prog::DistributedProgram& program,
                                   std::uint64_t seed,
                                   const std::string& what) {
  Space& space = program.space();
  const bdd::Bdd inv = program.invariant();
  const bdd::Bdd inv_cross = inv & space.prime(inv);
  const bdd::Bdd reach_primed = space.prime(program.reachable_under_faults());
  TransitionRelation two(space);
  TransitionRelation three(space);
  for (const bdd::Bdd& piece : repair::program_delta_pieces(program)) {
    two.add_part(piece, inv_cross);
    const bdd::Bdd conjuncts[3] = {piece, inv_cross, reach_primed};
    three.add_part(std::span<const bdd::Bdd>(conjuncts, 3));
  }
  const TransitionRelation relations[] = {
      repair::program_fault_relation(program), repair::fault_relation(program),
      std::move(two), std::move(three)};
  const char* const names[] = {"program+faults", "faults", "two conjuncts",
                               "three conjuncts"};
  support::SplitMix64 rng(seed);
  std::vector<bdd::Bdd> sets = probes(space, rng);
  sets.push_back(inv);
  int mismatches = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    for (const bdd::Bdd& probe : sets) {
      mismatches += expect_matches_flat(space, relations[r], probe,
                                        what + " " + names[r]);
    }
  }
  return mismatches;
}

TEST(RelationDifferentialTest, TmrCaseStudy) {
  auto program = cs::make_tmr({});
  expect_program_relations_match(*program, 1, "tmr");
}

TEST(RelationDifferentialTest, TokenRingCaseStudy) {
  auto program = cs::make_token_ring({});
  expect_program_relations_match(*program, 2, "token_ring");
}

TEST(RelationDifferentialTest, ByzantineCaseStudy) {
  auto program = cs::make_byzantine({});
  expect_program_relations_match(*program, 3, "byzantine");
}

TEST(RelationDifferentialTest, ChainCaseStudy) {
  cs::ChainOptions chain;
  chain.length = 8;
  auto program = cs::make_chain(chain);
  expect_program_relations_match(*program, 4, "Sc^8");
}

// With the intra engine on, the scheduled overloads Shannon-shard each
// part across workers; the sets must not change.
TEST(RelationDifferentialTest, ShardedCaseStudies) {
  auto tmr = cs::make_tmr({});
  tmr->space().enable_intra(2);
  expect_program_relations_match(*tmr, 5, "tmr (par-intra 2)");
  auto ring = cs::make_token_ring({});
  ring->space().enable_intra(2);
  expect_program_relations_match(*ring, 6, "token_ring (par-intra 2)");
}

// --- Random-model sweep ------------------------------------------------------

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

/// Every LR_FUZZ_TOPOLOGY / LR_FUZZ_FAULTS value, with the exact strings a
/// repro needs.
constexpr const char* kTopologies[] = {"random", "ring", "tree", "star"};
constexpr const char* kFaultClasses[] = {"havoc", "corrupt"};

TEST(RelationDifferentialFuzzTest, RandomModelsMatchFlat) {
  const std::uint64_t base = env_u64("LR_FUZZ_SEED", 20160523ull);
  const std::size_t per_combo =
      static_cast<std::size_t>(env_u64("LR_FUZZ_MODELS", 16));
  std::size_t failing = 0;
  for (const char* topology : kTopologies) {
    ::setenv("LR_FUZZ_TOPOLOGY", topology, 1);
    for (const char* faults : kFaultClasses) {
      ::setenv("LR_FUZZ_FAULTS", faults, 1);
      for (std::size_t i = 0; i < per_combo && failing < 5; ++i) {
        const std::uint64_t seed = testgen::model_seed(base, i);
        support::SplitMix64 rng(seed);
        auto program = testgen::random_program(rng);
        const std::string what = std::string(topology) + "/" + faults +
                                 " seed " + std::to_string(seed);
        if (expect_program_relations_match(*program, seed, what) > 0) {
          ++failing;
          std::fprintf(stderr,
                       "[fuzz] repro: LR_FUZZ_SEED=%llu LR_FUZZ_MODELS=1 "
                       "LR_FUZZ_TOPOLOGY=%s LR_FUZZ_FAULTS=%s "
                       "./test_relation --gtest_filter='*Fuzz*'\n",
                       static_cast<unsigned long long>(seed), topology,
                       faults);
        }
      }
    }
  }
  ::unsetenv("LR_FUZZ_FAULTS");
  ::unsetenv("LR_FUZZ_TOPOLOGY");
}

}  // namespace
}  // namespace lr::sym
