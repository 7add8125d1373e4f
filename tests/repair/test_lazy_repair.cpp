// End-to-end tests for lazy repair (Algorithm 1) on the paper's case
// studies, every result cross-checked by the independent verifier.

#include <gtest/gtest.h>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/parser.hpp"
#include "repair/lazy.hpp"
#include "repair/report.hpp"
#include "repair/verify.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "../support/realized_round.hpp"

namespace lr::repair {
namespace {

void expect_verified(prog::DistributedProgram& program,
                     const RepairResult& result) {
  ASSERT_TRUE(result.success) << result.failure_reason;
  const VerifyReport report = verify_masking(program, result);
  EXPECT_TRUE(report.ok);
  for (const std::string& failure : report.failures) {
    ADD_FAILURE() << "verifier: " << failure;
  }
}

TEST(LazyRepairTest, StabilizingChainSmall) {
  auto program = cs::make_chain({.length = 3, .domain = 2});
  const RepairResult result = lazy_repair(*program);
  expect_verified(*program, result);
  EXPECT_EQ(result.invariant, program->invariant());
}

TEST(LazyRepairTest, StabilizingChainWiderDomain) {
  auto program = cs::make_chain({.length = 4, .domain = 3});
  const RepairResult result = lazy_repair(*program);
  expect_verified(*program, result);
}

TEST(LazyRepairTest, ByzantineAgreementThreeNonGenerals) {
  auto program = cs::make_byzantine({.non_generals = 3});
  const RepairResult result = lazy_repair(*program);
  expect_verified(*program, result);
  // The invariant must keep some legitimate states and stay within S.
  EXPECT_TRUE(result.invariant.leq(program->invariant()));
}

TEST(LazyRepairTest, ByzantineWithFailStop) {
  auto program = cs::make_byzantine({.non_generals = 3, .fail_stop = true});
  const RepairResult result = lazy_repair(*program);
  expect_verified(*program, result);
}

// Observability integration: a traced repair run emits the expected nested
// span taxonomy and a parseable metrics report with the headline numbers.
TEST(LazyRepairTest, RunEmitsSpansAndMetrics) {
  support::trace::start();
  auto program = cs::make_chain({.length = 3, .domain = 2});
  const RepairResult result = lazy_repair(*program);
  support::trace::stop();
  ASSERT_TRUE(result.success) << result.failure_reason;

  const auto trace_doc = support::json_parse(support::trace::to_chrome_json());
  ASSERT_TRUE(trace_doc.has_value());
  const support::JsonValue* events = trace_doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  const auto span_duration = [&events](std::string_view name) {
    for (const support::JsonValue& event : events->array) {
      const support::JsonValue* n = event.find("name");
      if (n != nullptr && n->string == name) return event.find("dur")->number;
    }
    return -1.0;
  };
  // Step 1 and Step 2 both ran and took measurable (non-negative) time,
  // nested inside the top-level lazy_repair span.
  EXPECT_GE(span_duration("add_masking"), 0.0);
  EXPECT_GE(span_duration("realize"), 0.0);
  EXPECT_GE(span_duration("lazy_repair"), span_duration("add_masking"));
  EXPECT_GE(span_duration("lazy_repair"), span_duration("realize"));

  support::metrics::registry().clear();
  record_run_metrics(result.stats);
  const auto metrics_doc =
      support::json_parse(support::metrics::registry().to_json());
  ASSERT_TRUE(metrics_doc.has_value());
  const support::JsonValue* gauges = metrics_doc->find("gauges");
  const support::JsonValue* counters = metrics_doc->find("counters");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(counters, nullptr);
  for (const char* key :
       {"repair.step1_seconds", "repair.step2_seconds", "repair.total_seconds",
        "repair.reachable_states", "repair.invariant_states",
        "bdd.cache_hit_rate"}) {
    EXPECT_NE(gauges->find(key), nullptr) << key;
  }
  for (const char* key : {"repair.outer_iterations", "bdd.cache_lookups",
                          "bdd.cache_hits", "bdd.created_nodes"}) {
    EXPECT_NE(counters->find(key), nullptr) << key;
  }
  EXPECT_GE(gauges->find("repair.invariant_states")->number, 1.0);
  EXPECT_GE(counters->find("repair.outer_iterations")->number, 1.0);
}

// --- The local livelock proof ----------------------------------------------
//
// Lazy repair skips the global νZ when find_livelock_certificate finds a
// certificate on the repair-side O = tolerance − S′ (round.outside).

TEST(LivelockProofTest, ChainIsProvedAndLazyRepairMatchesTheNuZ) {
  for (const std::size_t length : {3u, 5u, 8u}) {
    auto program = cs::make_chain({.length = length, .domain = 4});
    const testgen::RealizedRound round = testgen::realize_first_round(*program);
    ASSERT_TRUE(round.ok);
    EXPECT_TRUE(find_livelock_certificate(*program, round.outside, round.deltas)
                    .has_value())
        << "Sc^" << length;
    // The νZ finds no cycle either, so it would prune nothing: the νZ path
    // returns realize()'s deltas, and so must lazy repair.
    EXPECT_TRUE(testgen::livelock_states(program->space(), round.deltas,
                                         round.outside)
                    .is_false());
    const RepairResult result = lazy_repair(*program);
    expect_verified(*program, result);
    ASSERT_EQ(result.stats.outer_iterations, 1u);
    ASSERT_EQ(result.process_deltas.size(), round.deltas.size());
    for (std::size_t j = 0; j < round.deltas.size(); ++j) {
      EXPECT_TRUE(result.process_deltas[j] == round.deltas[j])
          << "Sc^" << length << " process " << j;
    }
  }
}

TEST(LivelockProofTest, CyclicProcessGraphsFailWithoutBddWork) {
  auto ring = cs::make_token_ring({});
  auto mutex =
      lang::parse_program_file(std::string(LR_SOURCE_DIR) + "/models/mutex_ring.lr");
  for (prog::DistributedProgram* program : {ring.get(), mutex.get()}) {
    sym::Space& space = program->space();
    std::vector<bdd::Bdd> deltas;
    for (std::size_t j = 0; j < program->process_count(); ++j) {
      deltas.push_back(program->process_delta(j));
    }
    const bdd::Bdd outside =
        space.valid(sym::Version::kCurrent).minus(program->invariant());
    const std::uint64_t lookups = space.manager().stats().cache_lookups;
    EXPECT_FALSE(
        find_livelock_certificate(*program, outside, deltas).has_value())
        << program->name();
    EXPECT_EQ(space.manager().stats().cache_lookups, lookups)
        << program->name();
  }
}

TEST(LivelockProofTest, TwoWritersOfOneVariableFail) {
  // Neither process cycles alone, but together they toggle x forever:
  // only the graph's cycle p -> q -> p sees it.
  auto program = lang::parse_program(R"(
    program two_writers;
    var x : 0..1;
    process p { reads x; writes x; action up: x == 0 -> x := 1; }
    process q { reads x; writes x; action down: x == 1 -> x := 0; }
    invariant x == 0;
  )");
  sym::Space& space = program->space();
  const std::vector<bdd::Bdd> deltas{program->process_delta(0),
                                     program->process_delta(1)};
  const bdd::Bdd everywhere = space.valid(sym::Version::kCurrent);
  EXPECT_FALSE(
      testgen::livelock_states(space, deltas, everywhere).is_false());
  EXPECT_FALSE(
      find_livelock_certificate(*program, everywhere, deltas).has_value());
}

TEST(LivelockProofTest, DownstreamLocalCycleFailsAndIsStillPruned) {
  // The graph up -> down is acyclic, but down toggles b while a == 0: a
  // cycle of down alone outside the invariant. Step 1 keeps that original
  // behavior, so the proof must fail and the νZ must prune it.
  auto program = lang::parse_program(R"(
    program downstream_toggle;
    var a : 0..1;
    var b : 0..2;
    process up { reads a; writes a; action settle: a == 1 -> a := 0; }
    process down {
      reads a, b;
      writes b;
      action toggle: a == 0 && b != 2 -> b := ite(b == 0, 1, 0);
    }
    fault drop: b == 2 -> b := 0;
    invariant b == 2;
  )");
  const testgen::RealizedRound round = testgen::realize_first_round(*program);
  ASSERT_TRUE(round.ok);
  EXPECT_FALSE(testgen::livelock_states(program->space(), round.deltas,
                                        round.outside)
                   .is_false());
  EXPECT_FALSE(find_livelock_certificate(*program, round.outside, round.deltas)
                   .has_value());
  const RepairResult result = lazy_repair(*program);
  expect_verified(*program, result);
}

TEST(LivelockProofTest, SpanSaysWhichPathDecided) {
  const auto livelock_args = [](prog::DistributedProgram& program) {
    support::trace::start();
    const RepairResult result = lazy_repair(program);
    support::trace::stop();
    EXPECT_TRUE(result.success) << result.failure_reason;
    auto doc = support::json_parse(support::trace::to_chrome_json());
    if (!doc.has_value()) return support::JsonValue{};
    for (const support::JsonValue& event : doc->find("traceEvents")->array) {
      const support::JsonValue* name = event.find("name");
      if (name != nullptr && name->string == "lazy_repair.eliminate_livelocks") {
        return *event.find("args");
      }
    }
    return support::JsonValue{};
  };
  auto chain = cs::make_chain({.length = 4, .domain = 3});
  const support::JsonValue proved = livelock_args(*chain);
  ASSERT_NE(proved.find("proof"), nullptr);
  EXPECT_EQ(proved.find("proof")->string, "layers");
  EXPECT_EQ(proved.find("iterations"), nullptr);

  auto ring = cs::make_token_ring({.processes = 3, .domain = 3});
  const support::JsonValue searched = livelock_args(*ring);
  ASSERT_NE(searched.find("proof"), nullptr);
  EXPECT_EQ(searched.find("proof")->string, "nu_z");
  ASSERT_NE(searched.find("iterations"), nullptr);
  EXPECT_GE(searched.find("iterations")->number, 1.0);
}

}  // namespace
}  // namespace lr::repair
