// Tests for the repair decision journal: sat_one witness extraction,
// machine-verification of every journal witness against its event's
// pre/post predicates, the lazy-vs-cautious pre-Repair pruning contrast
// the journal exists to expose, and byte-determinism of the JSONL form.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/witness.hpp"
#include "lang/parser.hpp"
#include "repair/cautious.hpp"
#include "repair/journal.hpp"
#include "repair/lazy.hpp"
#include "repair/types.hpp"

namespace lr::repair {
namespace {

std::string model_path(const std::string& name) {
  return std::string(LR_SOURCE_DIR) + "/models/" + name;
}

double num_field(const JournalEvent& event, const char* key) {
  const auto it = event.num.find(key);
  return it == event.num.end() ? 0.0 : it->second;
}

std::string text_field(const JournalEvent& event, const char* key) {
  const auto it = event.text.find(key);
  return it == event.text.end() ? std::string() : it->second;
}

// ---------------------------------------------------------------------------
// bdd::sat_one

TEST(SatOneTest, ExtractsASatisfyingAssignment) {
  bdd::Manager mgr;
  std::vector<bdd::VarIndex> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(mgr.new_var());
  const bdd::Bdd f = mgr.bdd_var(vars[0]) & mgr.bdd_nvar(vars[2]);

  const std::vector<signed char> values = bdd::sat_one(mgr, f);
  ASSERT_EQ(values.size(), mgr.var_count());
  EXPECT_EQ(values[vars[0]], 1);
  EXPECT_EQ(values[vars[2]], 0);
  // Variables outside the support are don't-cares.
  EXPECT_EQ(values[vars[1]], -1);
  EXPECT_EQ(values[vars[3]], -1);

  // Re-encode the assignment (don't-cares -> either value) and check it
  // satisfies f.
  bdd::Bdd minterm = mgr.bdd_true();
  for (bdd::VarIndex v = 0; v < mgr.var_count(); ++v) {
    if (values[v] == 1) minterm &= mgr.bdd_var(v);
    if (values[v] == 0) minterm &= mgr.bdd_nvar(v);
  }
  EXPECT_TRUE(minterm.leq(f));
}

TEST(SatOneTest, UnsatAndInvalidReturnEmpty) {
  bdd::Manager mgr;
  (void)mgr.new_var();
  EXPECT_TRUE(bdd::sat_one(mgr, mgr.bdd_false()).empty());
  EXPECT_TRUE(bdd::sat_one(mgr, bdd::Bdd()).empty());
}

TEST(SatOneTest, TautologyIsAllDontCares) {
  bdd::Manager mgr;
  (void)mgr.new_var();
  (void)mgr.new_var();
  const std::vector<signed char> values = bdd::sat_one(mgr, mgr.bdd_true());
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], -1);
  EXPECT_EQ(values[1], -1);
}

TEST(SatOneTest, IsDeterministic) {
  bdd::Manager mgr;
  std::vector<bdd::VarIndex> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(mgr.new_var());
  const bdd::Bdd f = (mgr.bdd_var(vars[1]) ^ mgr.bdd_var(vars[3])) |
                     (mgr.bdd_var(vars[0]) & mgr.bdd_var(vars[5]));
  EXPECT_EQ(bdd::sat_one(mgr, f), bdd::sat_one(mgr, f));
}

// ---------------------------------------------------------------------------
// Journal integration

struct JournalRun {
  std::unique_ptr<prog::DistributedProgram> program;
  Journal journal;  // declared after program: events hold live Bdd handles
  RepairResult result;
};

JournalRun run_with_journal(const std::string& model, bool cautious) {
  JournalRun run;
  run.program = lang::parse_program_file(model_path(model));
  Options options;
  options.journal = &run.journal;
  run.result = cautious ? cautious_repair(*run.program, options)
                        : lazy_repair(*run.program, options);
  return run;
}

/// Re-checks every witness in the journal against the live pre/post
/// predicates of its event: the witness must satisfy the pre-prune
/// predicate and violate the post-prune one. Returns the number of
/// witnesses verified.
std::size_t verify_witnesses(JournalRun& run) {
  sym::Space& space = run.program->space();
  std::size_t verified = 0;
  for (const JournalEvent& event : run.journal.events()) {
    if (!event.witness || !event.pre.valid()) continue;
    const JournalWitness& w = *event.witness;
    bdd::Bdd minterm;
    if (w.to.empty()) {
      minterm = space.state(w.from, sym::Version::kCurrent);
    } else {
      minterm = space.transition(w.from, w.to);
    }
    EXPECT_TRUE(minterm.valid()) << event.kind;
    if (!minterm.valid()) continue;
    // Satisfies the pre-prune predicate ...
    EXPECT_TRUE(minterm.leq(event.pre))
        << event.kind << " witness escapes its pre predicate";
    // ... and violates the post-prune one (when the event has one).
    if (event.post.valid()) {
      EXPECT_TRUE((minterm & event.post).is_false())
          << event.kind << " witness still satisfies its post predicate";
    }
    ++verified;
  }
  return verified;
}

// ASSERT_TRUE inside a helper needs a void-returning wrapper.
void verify_witnesses_nonempty(JournalRun& run) {
  EXPECT_GT(verify_witnesses(run), 0u);
}

TEST(JournalTest, LazyWitnessesAreMachineVerified) {
  // mutex_ring makes lazy's realize drop closure-violating groups, so
  // the journal carries transition witnesses to verify.
  JournalRun run = run_with_journal("mutex_ring.lr", /*cautious=*/false);
  EXPECT_TRUE(run.result.success);
  verify_witnesses_nonempty(run);
}

TEST(JournalTest, CautiousWitnessesAreMachineVerified) {
  JournalRun run = run_with_journal("mutex_ring.lr", /*cautious=*/true);
  verify_witnesses_nonempty(run);
}

TEST(JournalTest, TmrWitnessesAreMachineVerified) {
  // tmr journals have no prunes (the unreachable-member tolerance
  // covers every ref-flipped group member) — every witness that does
  // appear must still check out, for both algorithms.
  for (const bool cautious : {false, true}) {
    JournalRun run = run_with_journal("tmr.lr", cautious);
    EXPECT_TRUE(run.result.success);
    verify_witnesses(run);
  }
}

/// Transitions pruned during pre-Repair analysis ("analysis.*" phases:
/// the cautious group-closure discipline) summed over the journal.
double analysis_pruned_trans(const Journal& journal) {
  double total = 0.0;
  for (const JournalEvent& event : journal.events()) {
    if (event.kind != "prune") continue;
    if (text_field(event, "phase").rfind("analysis.", 0) == 0) {
      total += num_field(event, "trans");
    }
  }
  return total;
}

TEST(JournalTest, CautiousPrunesStrictlyMoreBeforeRepairPhase) {
  // The paper's lazy-repair claim, decision-by-decision: lazy defers all
  // pruning to the Repair phase (zero analysis-phase prunes), while the
  // cautious discipline prunes groups during its per-step closure
  // analysis — on mutex_ring so aggressively that repair fails.
  JournalRun lazy = run_with_journal("mutex_ring.lr", /*cautious=*/false);
  JournalRun cautious = run_with_journal("mutex_ring.lr", /*cautious=*/true);
  EXPECT_TRUE(lazy.result.success);

  const double lazy_pruned = analysis_pruned_trans(lazy.journal);
  const double cautious_pruned = analysis_pruned_trans(cautious.journal);
  EXPECT_EQ(lazy_pruned, 0.0);
  EXPECT_GT(cautious_pruned, lazy_pruned);
}

TEST(JournalTest, JsonlIsByteDeterministic) {
  // Two independent runs of the same deterministic repair (fresh program,
  // fresh manager, fresh journal) serialize byte-identically — the
  // property the batch --jobs determinism test leans on.
  for (const bool cautious : {false, true}) {
    JournalRun first = run_with_journal("mutex_ring.lr", cautious);
    JournalRun second = run_with_journal("mutex_ring.lr", cautious);
    EXPECT_EQ(first.journal.to_jsonl(), second.journal.to_jsonl());
  }
}

TEST(JournalTest, JsonlShapeAndSchema) {
  JournalRun run = run_with_journal("tmr.lr", /*cautious=*/false);
  const std::string jsonl = run.journal.to_jsonl();
  EXPECT_EQ(jsonl.rfind("{\"schema\":1,\"event\":\"journal\"", 0), 0u)
      << jsonl.substr(0, 80);
  EXPECT_NE(jsonl.find("\"algorithm\":\"lazy\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"round_start\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"run_end\""), std::string::npos);
}

TEST(JournalTest, DescribeJournalNarrative) {
  JournalRun run = run_with_journal("tmr.lr", /*cautious=*/false);
  const std::vector<std::string> lines = describe_journal(run.journal);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find("algorithm lazy"), std::string::npos);
  bool saw_round = false;
  for (const std::string& line : lines) {
    if (line.rfind("round 0:", 0) == 0) saw_round = true;
  }
  EXPECT_TRUE(saw_round);
  EXPECT_EQ(lines.back(), "result: success");
}

TEST(JournalTest, JournalingDoesNotChangeTheRepair) {
  // Observation only: the same model repairs to the same invariant and
  // span with and without a journal attached.
  auto bare_program = lang::parse_program_file(model_path("mutex_ring.lr"));
  Options bare_options;
  const RepairResult bare = lazy_repair(*bare_program, bare_options);

  JournalRun run = run_with_journal("mutex_ring.lr", /*cautious=*/false);
  EXPECT_EQ(bare.success, run.result.success);
  EXPECT_EQ(bare.stats.invariant_states, run.result.stats.invariant_states);
  EXPECT_EQ(bare.stats.span_states, run.result.stats.span_states);
  EXPECT_EQ(bare.stats.outer_iterations, run.result.stats.outer_iterations);
}

}  // namespace
}  // namespace lr::repair
