// Differential suite for relations as lists of parts: Space's image,
// preimage, has_successor_in, live_core and forward_reachable over n parts
// must compute exactly the sets they compute over the union of the same
// parts passed as one part. The union is rebuilt here from the parts'
// BDDs, so a dropped part or a wrong per-part step shows up as a set
// mismatch.
//
// Covered: random parts over every variable, random parts that leave
// variables out of their support, a one-part relation, the empty fault
// list, the relations the repair layer builds for every case study, and
// seeded random models across every LR_FUZZ_TOPOLOGY x LR_FUZZ_FAULTS
// combination.
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
#include <memory>
#include <span>
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
#include "symbolic/space.hpp"
#include "../support/model_gen.hpp"

namespace lr::sym {
namespace {

/// Compares every relational operation over `parts` with the same
/// operation over their union as one part, on `probe`. Returns the number
/// of mismatches (each also reported as a failure).
int expect_matches_union(Space& space, std::span<const bdd::Bdd> parts,
                         const bdd::Bdd& probe, const std::string& what) {
  bdd::Bdd whole = space.bdd_false();
  for (const bdd::Bdd& part : parts) whole |= part;
  const std::span<const bdd::Bdd> one(&whole, 1);
  int mismatches = 0;
  const auto check = [&](const bdd::Bdd& split, const bdd::Bdd& expected,
                         const char* op) {
    EXPECT_EQ(split, expected) << what << ": " << op << " vs union";
    if (split != expected) ++mismatches;
  };
  check(space.image(parts, probe), space.image(one, probe), "image");
  check(space.preimage(parts, probe), space.preimage(one, probe),
        "preimage");
  check(space.has_successor_in(parts, probe),
        space.has_successor_in(one, probe), "has_successor_in");
  check(space.live_core(parts, probe), space.live_core(one, probe),
        "live_core");
  check(space.forward_reachable(parts, probe),
        space.forward_reachable(one, probe), "forward_reachable");
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

/// A Space of three small variables for the random-part cases.
void add_random_part_variables(Space& space) {
  (void)space.add_variable("a", 3);
  (void)space.add_variable("b", 4);
  (void)space.add_variable("c", 2);
}

// Random transitions over all three variables as parts.
TEST(RelationDifferentialTest, OneConjunctParts) {
  support::SplitMix64 rng(11);
  Space space;
  add_random_part_variables(space);
  for (int round = 0; round < 6; ++round) {
    std::vector<bdd::Bdd> rel;
    for (int p = 0; p < 3; ++p) {
      rel.push_back(random_transitions(space, rng, 12));
    }
    for (const bdd::Bdd& probe : probes(space, rng)) {
      expect_matches_union(space, rel, probe,
                           "round " + std::to_string(round));
    }
  }
}

/// A random part that writes one variable under a guard on another (or
/// the same) one: `count` random (guard, old, new) triples. Every other
/// variable is outside its support, and so are the guard's next bits
/// when the guard is not the written variable.
bdd::Bdd random_local_part(Space& space, support::SplitMix64& rng,
                           std::size_t count) {
  const auto pick = [&] {
    return static_cast<VarId>(rng.below(space.variable_count()));
  };
  const VarId written = pick();
  const VarId guard = pick();
  const auto value = [&](VarId v) {
    return static_cast<std::uint32_t>(rng.below(space.info(v).domain));
  };
  bdd::Bdd part = space.bdd_false();
  for (std::size_t i = 0; i < count; ++i) {
    part |= space.value_eq(guard, value(guard), Version::kCurrent) &
            space.value_eq(written, value(written), Version::kCurrent) &
            space.value_eq(written, value(written), Version::kNext);
  }
  return part;
}

TEST(RelationDifferentialTest, PartialSupportParts) {
  support::SplitMix64 rng(22);
  Space space;
  add_random_part_variables(space);
  for (int round = 0; round < 6; ++round) {
    // Each part names at most two of the three variables.
    std::vector<bdd::Bdd> rel;
    for (int p = 0; p < 3; ++p) {
      rel.push_back(random_local_part(space, rng, 4));
    }
    for (const bdd::Bdd& probe : probes(space, rng)) {
      expect_matches_union(space, rel, probe,
                           "partial support, round " + std::to_string(round));
    }
  }
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
  const std::vector<bdd::Bdd> natural =
      repair::program_fault_relation(*program);
  for (const bdd::Bdd& probe : probes(space, rng)) {
    expect_matches_union(space, std::span(&delta, 1), probe, "one part");
    expect_matches_union(space, natural, probe, "one process, no faults");
  }
}

TEST(RelationDifferentialTest, EmptyFaultList) {
  auto program = lang::parse_program(kOneProcessNoFaults);
  Space& space = program->space();
  const std::vector<bdd::Bdd>& faults = program->fault_action_deltas();
  ASSERT_TRUE(faults.empty());
  const bdd::Bdd start = program->invariant();
  // No fault steps: nothing is a fault successor or predecessor, and fault
  // reachability is the identity.
  EXPECT_TRUE(space.image(faults, start).is_false());
  EXPECT_TRUE(space.preimage(faults, start).is_false());
  EXPECT_TRUE(space.has_successor_in(faults, start).is_false());
  EXPECT_EQ(space.forward_reachable(faults, start), start);
  support::SplitMix64 rng(55);
  for (const bdd::Bdd& probe : probes(space, rng)) {
    expect_matches_union(space, faults, probe, "empty fault list");
  }
}

/// The relations the repair layer builds for `program`: δ_P ∪ f and f,
/// and the program pieces restricted to the invariant and additionally to
/// a reachable post-state.
int expect_program_relations_match(prog::DistributedProgram& program,
                                   std::uint64_t seed,
                                   const std::string& what) {
  Space& space = program.space();
  const bdd::Bdd inv = program.invariant();
  const bdd::Bdd inv_cross = inv & space.prime(inv);
  const bdd::Bdd reach_primed = space.prime(program.reachable_under_faults());
  std::vector<bdd::Bdd> closed;
  std::vector<bdd::Bdd> reaching;
  for (const bdd::Bdd& piece : repair::program_delta_pieces(program)) {
    const bdd::Bdd in_invariant = piece & inv_cross;
    closed.push_back(in_invariant);
    reaching.push_back(in_invariant & reach_primed);
  }
  const std::vector<bdd::Bdd> relations[] = {
      repair::program_fault_relation(program), program.fault_action_deltas(),
      std::move(closed), std::move(reaching)};
  const char* const names[] = {"program+faults", "faults", "inside S",
                               "inside S, into reach"};
  support::SplitMix64 rng(seed);
  std::vector<bdd::Bdd> sets = probes(space, rng);
  sets.push_back(inv);
  int mismatches = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    for (const bdd::Bdd& probe : sets) {
      mismatches += expect_matches_union(space, relations[r], probe,
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
