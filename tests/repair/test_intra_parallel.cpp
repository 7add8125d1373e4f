// Differential equivalence suite for intra-problem parallelism
// (Options::intra_jobs / --par-intra): the sharded image/preimage
// computation promises *bit-identical* results to the sequential engine —
// same exported model text, same journal byte stream, same non-timing
// repair metrics. This suite locks that contract down on every case study
// and on a sweep of random models across every LR_FUZZ_TOPOLOGY value.
//
// Environment knobs (fuzz sweep):
//   LR_FUZZ_SEED=N     base seed (model i uses seed N+i); default 20160523
//   LR_FUZZ_MODELS=N   models per topology; default 96 (3 topologies)
//
// On a mismatch the sweep immediately prints the exact failing seed and a
// one-line repro command, e.g.
//   LR_FUZZ_SEED=20160711 LR_FUZZ_MODELS=1 LR_FUZZ_TOPOLOGY=ring \
//     ./test_intra_parallel --gtest_filter='*Fuzz*'
// which replays exactly that model (model_seed(base, 0) == base).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "program/distributed_program.hpp"
#include "repair/cautious.hpp"
#include "repair/export.hpp"
#include "repair/journal.hpp"
#include "repair/lazy.hpp"
#include "support/rng.hpp"
#include "../support/model_gen.hpp"

namespace lr::repair {
namespace {

using ProgramFactory =
    std::function<std::unique_ptr<prog::DistributedProgram>()>;

/// Everything the sequential/parallel runs must agree on byte-for-byte.
struct Artifacts {
  bool success = false;
  std::string failure_reason;
  std::string exported;  ///< export_model() text (empty on failure)
  std::string journal;   ///< Journal::to_jsonl()
  std::string keys;      ///< comparable (non-timing) repair metrics
};

/// The metrics-json `repair.*` keys minus wall-clock (`*_seconds`) and the
/// allocator high-water mark (`peak_bdd_nodes` counts worker-side
/// intermediates differently by construction; see DESIGN.md).
std::string comparable_keys(const Stats& stats) {
  std::ostringstream out;
  out << "reachable_states=" << stats.reachable_states
      << " outer_iterations=" << stats.outer_iterations
      << " addmasking_rounds=" << stats.addmasking_rounds
      << " group_iterations=" << stats.group_iterations
      << " expand_accepts=" << stats.expand_successes
      << " expand_rejects=" << stats.expand_failures
      << " recovery_layers=" << stats.recovery_layers
      << " deadlock_rounds=" << stats.deadlock_rounds
      << " deadlock_states_banned=" << stats.deadlock_states_banned
      << " banned_trans_nodes=" << stats.banned_trans_nodes
      << " span_states=" << stats.span_states
      << " invariant_states=" << stats.invariant_states;
  return out.str();
}

Artifacts run_repair(const ProgramFactory& make, std::size_t intra_jobs,
                     Options options = {}, bool cautious = false) {
  std::unique_ptr<prog::DistributedProgram> program = make();
  // Declared after `program`: journal events hold Bdd handles and must not
  // outlive the program's Space.
  Journal journal;
  journal.meta("model", program->name());
  options.journal = &journal;
  options.intra_jobs = intra_jobs;
  const RepairResult result =
      cautious ? cautious_repair(*program, options) : lazy_repair(*program, options);
  Artifacts artifacts;
  artifacts.success = result.success;
  artifacts.failure_reason = result.failure_reason;
  if (result.success) artifacts.exported = export_model(*program, result);
  artifacts.journal = journal.to_jsonl();
  artifacts.keys = comparable_keys(result.stats);
  return artifacts;
}

/// Byte-compares a sequential run against one intra_jobs value; `what`
/// names the configuration in failure messages.
::testing::AssertionResult equivalent(const Artifacts& seq,
                                      const Artifacts& par,
                                      const std::string& what) {
  if (seq.success != par.success) {
    return ::testing::AssertionFailure()
           << what << ": success " << seq.success << " vs " << par.success
           << " (" << seq.failure_reason << " / " << par.failure_reason
           << ")";
  }
  if (seq.exported != par.exported) {
    return ::testing::AssertionFailure()
           << what << ": exported models differ (" << seq.exported.size()
           << " vs " << par.exported.size() << " bytes)";
  }
  if (seq.journal != par.journal) {
    return ::testing::AssertionFailure()
           << what << ": journals differ (" << seq.journal.size() << " vs "
           << par.journal.size() << " bytes)";
  }
  if (seq.keys != par.keys) {
    return ::testing::AssertionFailure() << what << ": repair metrics differ\n  seq: "
                                         << seq.keys << "\n  par: " << par.keys;
  }
  return ::testing::AssertionSuccess();
}

constexpr std::size_t kIntraValues[] = {2, 4, 8};

void expect_all_intra_equivalent(const char* name, const ProgramFactory& make,
                                 Options options = {}, bool cautious = false) {
  const Artifacts seq = run_repair(make, 1, options, cautious);
  for (const std::size_t intra : kIntraValues) {
    const Artifacts par = run_repair(make, intra, options, cautious);
    EXPECT_TRUE(equivalent(seq, par, std::string(name) + " intra_jobs=" +
                                         std::to_string(intra)));
  }
}

TEST(IntraParallelTest, TmrMatchesSequential) {
  expect_all_intra_equivalent("tmr", [] { return cs::make_tmr({}); });
}

TEST(IntraParallelTest, TokenRingMatchesSequential) {
  expect_all_intra_equivalent("token_ring",
                              [] { return cs::make_token_ring({}); });
}

TEST(IntraParallelTest, ByzantineMatchesSequential) {
  expect_all_intra_equivalent("byzantine",
                              [] { return cs::make_byzantine({}); });
}

TEST(IntraParallelTest, ChainMatchesSequential) {
  cs::ChainOptions chain;
  chain.length = 8;
  expect_all_intra_equivalent("Sc^8",
                              [chain] { return cs::make_chain(chain); });
}

// Algorithm and option variants: the parallel paths must stay equivalent
// under the cautious baseline, the one-shot group method, and the
// non-masking tolerance levels (each exercises different engine entry
// points — cautious preimages, realize's kOneShot worker branch, the
// failsafe deadlock check).
TEST(IntraParallelTest, CautiousMatchesSequential) {
  Options options;
  options.group_method = GroupMethod::kOneShot;
  expect_all_intra_equivalent(
      "token_ring/cautious", [] { return cs::make_token_ring({}); }, options,
      /*cautious=*/true);
}

TEST(IntraParallelTest, OneShotMatchesSequential) {
  Options options;
  options.group_method = GroupMethod::kOneShot;
  expect_all_intra_equivalent("tmr/oneshot", [] { return cs::make_tmr({}); },
                              options);
}

TEST(IntraParallelTest, FailsafeMatchesSequential) {
  Options options;
  options.level = ToleranceLevel::kFailsafe;
  expect_all_intra_equivalent("tmr/failsafe", [] { return cs::make_tmr({}); },
                              options);
}

TEST(IntraParallelTest, NonmaskingMatchesSequential) {
  Options options;
  options.level = ToleranceLevel::kNonmasking;
  expect_all_intra_equivalent("chain/nonmasking", [] {
    cs::ChainOptions chain;
    chain.length = 5;
    return cs::make_chain(chain);
  }, options);
}

// --- Random-model sweep ------------------------------------------------------

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

/// Every LR_FUZZ_TOPOLOGY value, with the exact string a repro needs.
constexpr const char* kTopologies[] = {"random", "ring", "tree"};

TEST(IntraParallelFuzzTest, RandomModelsMatchSequential) {
  const std::uint64_t base = env_u64("LR_FUZZ_SEED", 20160523ull);
  const std::size_t per_topology =
      static_cast<std::size_t>(env_u64("LR_FUZZ_MODELS", 96));
  std::size_t mismatches = 0;
  for (const char* topology : kTopologies) {
    ::setenv("LR_FUZZ_TOPOLOGY", topology, 1);
    for (std::size_t i = 0; i < per_topology && mismatches < 5; ++i) {
      const std::uint64_t seed = testgen::model_seed(base, i);
      const ProgramFactory make = [seed] {
        support::SplitMix64 rng(seed);
        return testgen::random_program(rng);
      };
      const Artifacts seq = run_repair(make, 1);
      for (const std::size_t intra : kIntraValues) {
        const Artifacts par = run_repair(make, intra);
        const ::testing::AssertionResult ok = equivalent(
            seq, par,
            std::string(topology) + " intra_jobs=" + std::to_string(intra));
        if (!ok) {
          ++mismatches;
          std::fprintf(stderr,
                       "[fuzz] MISMATCH seed=%llu: %s\n"
                       "[fuzz] repro: LR_FUZZ_SEED=%llu LR_FUZZ_MODELS=1 "
                       "LR_FUZZ_TOPOLOGY=%s ./test_intra_parallel "
                       "--gtest_filter='*Fuzz*'\n",
                       static_cast<unsigned long long>(seed),
                       ok.message(),
                       static_cast<unsigned long long>(seed), topology);
          ADD_FAILURE() << "seed " << seed << ": " << ok.message();
        }
      }
    }
  }
  ::unsetenv("LR_FUZZ_TOPOLOGY");
}

}  // namespace
}  // namespace lr::repair
