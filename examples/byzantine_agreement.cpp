// Byzantine agreement (Section VI of the paper): builds BA^n, repairs it
// with lazy repair (default) or the cautious baseline, prints the repaired
// actions of one non-general, and cross-verifies the result.
//
// Usage:
//   byzantine_agreement [--n=3] [--failstop] [--cautious] [--no-verify]

#include <cstdio>
#include <iostream>

#include "casestudies/byzantine.hpp"
#include "repair/cautious.hpp"
#include "repair/describe.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const lr::support::CommandLine cli(argc, argv);
  lr::cs::ByzantineOptions model;
  model.non_generals = static_cast<std::size_t>(cli.get_int("n", 3));
  model.fail_stop = cli.has("failstop");

  auto program = lr::cs::make_byzantine(model);
  std::printf("model: %s, state space %.3g states\n",
              program->name().c_str(), program->space().state_space_size());

  lr::support::Stopwatch watch;
  const lr::repair::RepairResult result =
      cli.has("cautious") ? lr::repair::cautious_repair(*program)
                          : lr::repair::lazy_repair(*program);
  const double elapsed = watch.seconds();
  if (!result.success) {
    std::printf("repair failed: %s\n", result.failure_reason.c_str());
    return 1;
  }

  lr::support::Table table({"metric", "value"});
  table.add_row({"algorithm", cli.has("cautious") ? "cautious" : "lazy"});
  table.add_row({"total time", lr::support::format_duration(elapsed)});
  table.add_row({"step 1 (Add-Masking)",
                 lr::support::format_duration(result.stats.step1_seconds)});
  table.add_row({"step 2 (Algorithm 2)",
                 lr::support::format_duration(result.stats.step2_seconds)});
  table.add_row({"reachable states",
                 lr::support::format_state_count(result.stats.reachable_states)});
  table.add_row({"invariant S' states",
                 lr::support::format_state_count(result.stats.invariant_states)});
  table.add_row({"fault-span states",
                 lr::support::format_state_count(result.stats.span_states)});
  table.add_row({"outer iterations",
                 std::to_string(result.stats.outer_iterations)});
  table.print(std::cout);

  std::printf("\nrepaired actions of process p0 (within the fault span):\n");
  for (const std::string& line : lr::repair::describe_process_program(
           *program, 0, result.process_deltas[0], result.fault_span, 24)) {
    std::printf("  %s\n", line.c_str());
  }

  if (!cli.has("no-verify")) {
    const lr::repair::VerifyReport report =
        lr::repair::verify_masking(*program, result);
    std::printf("\nverification: %s\n", report.ok ? "OK" : "FAILED");
    for (const std::string& failure : report.failures) {
      std::printf("  %s\n", failure.c_str());
    }
    return report.ok ? 0 : 1;
  }
  return 0;
}
