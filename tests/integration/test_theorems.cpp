// Integration sweep: Theorems 1 and 2 of the paper, checked over a grid of
// case-study instances and algorithm configurations, by the symbolic
// verifier and (when small enough) the explicit-state checker.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/token_ring.hpp"
#include "explicit_model/explicit_model.hpp"
#include "repair/cautious.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"
#include "../support/group_loops.hpp"

namespace lr::repair {
namespace {

struct Scenario {
  std::string name;
  std::function<std::unique_ptr<prog::DistributedProgram>()> build;
  bool run_cautious = false;
};

std::ostream& operator<<(std::ostream& os, const Scenario& s) {
  return os << s.name;
}

class TheoremsTest : public ::testing::TestWithParam<Scenario> {};

void check(prog::DistributedProgram& program, const RepairResult& result,
           const std::string& label) {
  ASSERT_TRUE(result.success) << label << ": " << result.failure_reason;
  const VerifyReport report = verify_masking(program, result);
  EXPECT_TRUE(report.ok) << label;
  for (const auto& f : report.failures) ADD_FAILURE() << label << ": " << f;
  // Explicit cross-check on small instances.
  if (program.space().state_space_size() <= 40000) {
    xmodel::ExplicitModel model(program);
    const auto explicit_report = model.verify(result);
    EXPECT_TRUE(explicit_report.ok) << label;
    for (const auto& f : explicit_report.failures) {
      ADD_FAILURE() << label << " (explicit): " << f;
    }
  }
}

TEST_P(TheoremsTest, LazyGroupLoopIsMaskingAndRealizable) {
  // Algorithm 2's own loop, run over the repaired program with its fault
  // span as T', keeps every transition the span uses: Step 2's one-∀
  // output is a fixpoint of the paper's loop.
  auto program = GetParam().build();
  const RepairResult result = lazy_repair(*program);
  check(*program, result, "lazy/group-loop");
  if (!result.success) return;
  const testgen::GroupLoopResult loop = testgen::realize_group_loop(
      *program, result.delta, result.fault_span, /*expand=*/true);
  for (std::size_t j = 0; j < program->process_count(); ++j) {
    EXPECT_TRUE((result.process_deltas[j] & result.fault_span)
                    .leq(loop.deltas[j]))
        << "process " << j;
  }
  EXPECT_EQ(loop.rejections, 0u);
}

TEST_P(TheoremsTest, LazyOneShotIsMaskingAndRealizable) {
  auto program = GetParam().build();
  check(*program, lazy_repair(*program), "lazy/one-shot");
}

TEST_P(TheoremsTest, LazyWithoutHeuristicIsMaskingAndRealizable) {
  auto program = GetParam().build();
  Options options;
  options.restrict_to_reachable = false;
  check(*program, lazy_repair(*program, options), "lazy/full-space");
}

TEST_P(TheoremsTest, CautiousIsMaskingAndRealizable) {
  if (!GetParam().run_cautious) GTEST_SKIP() << "cautious not expected here";
  auto program = GetParam().build();
  check(*program, cautious_repair(*program), "cautious");
}

INSTANTIATE_TEST_SUITE_P(
    CaseStudies, TheoremsTest,
    ::testing::Values(
        Scenario{"ba3",
                 [] { return cs::make_byzantine({.non_generals = 3}); },
                 true},
        Scenario{"ba4",
                 [] { return cs::make_byzantine({.non_generals = 4}); },
                 true},
        Scenario{"ba5",
                 [] { return cs::make_byzantine({.non_generals = 5}); },
                 false},
        Scenario{"bafs2",
                 [] {
                   return cs::make_byzantine(
                       {.non_generals = 2, .fail_stop = true});
                 },
                 true},
        Scenario{"bafs3",
                 [] {
                   return cs::make_byzantine(
                       {.non_generals = 3, .fail_stop = true});
                 },
                 false},
        Scenario{"chain3x2",
                 [] { return cs::make_chain({.length = 3, .domain = 2}); },
                 false},
        Scenario{"chain4x3",
                 [] { return cs::make_chain({.length = 4, .domain = 3}); },
                 false},
        Scenario{"chain6x4",
                 [] { return cs::make_chain({.length = 6, .domain = 4}); },
                 false},
        Scenario{"ring3x3",
                 [] {
                   return cs::make_token_ring({.processes = 3, .domain = 3});
                 },
                 false},
        Scenario{"ring4x4",
                 [] {
                   return cs::make_token_ring({.processes = 4, .domain = 4});
                 },
                 false}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lr::repair
