// Unit tests for Step 2 (Algorithm 2), the equivalence of its two group
// methods, and a differential test of the batched group loop against the
// paper's one-group-at-a-time rejection loop.
//
// Environment knobs (fuzz sweep of the differential test):
//   LR_FUZZ_SEED=N     base seed (model i uses seed N+i); default 20160523
//   LR_FUZZ_MODELS=N   models per topology x fault class; default 64

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bdd/profile.hpp"
#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/parser.hpp"
#include "repair/add_masking.hpp"
#include "repair/journal.hpp"
#include "repair/realize.hpp"
#include "support/rng.hpp"
#include "symbolic/relation.hpp"
#include "../support/model_gen.hpp"

namespace lr::repair {
namespace {

/// Runs step 1 + step 2 with the given group method and returns the
/// per-process deltas along with the tolerance set used.
struct Realized {
  std::vector<bdd::Bdd> deltas;
  bdd::Bdd tolerance;
  Stats stats;
};

Realized realize_case(prog::DistributedProgram& p, GroupMethod method,
                      bool expand = true) {
  Realized out;
  Options options;
  options.group_method = method;
  options.use_expand_group = expand;
  const StepOneResult step1 = add_masking(
      p, p.invariant(), p.space().bdd_false(), bdd::Bdd(), options, out.stats);
  EXPECT_TRUE(step1.success);
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p.fault_action_deltas()) parts.push_back(f);
  out.tolerance = p.space().forward_reachable(
      sym::TransitionRelation::partitioned(p.space(), parts),
      step1.invariant);
  out.deltas = realize(p, step1.delta, out.tolerance, options, out.stats);
  return out;
}

TEST(RealizeTest, OutputIsRealizableByEachProcess) {
  auto p = cs::make_byzantine({.non_generals = 3});
  const Realized r = realize_case(*p, GroupMethod::kPaperLoop);
  for (std::size_t j = 0; j < p->process_count(); ++j) {
    EXPECT_TRUE(p->realizable_by_process(j, r.deltas[j])) << "process " << j;
    EXPECT_TRUE(r.deltas[j].disjoint(p->space().identity()));
  }
}

TEST(RealizeTest, PaperLoopAndOneShotAgreeInsideTolerance) {
  // The two methods keep exactly the same groups; compare the transitions
  // that start inside the tolerance set (outside it both keep don't-cares
  // of the accepted groups only).
  auto p1 = cs::make_byzantine({.non_generals = 3});
  const Realized loop = realize_case(*p1, GroupMethod::kPaperLoop);
  auto p2 = cs::make_byzantine({.non_generals = 3});
  const Realized oneshot = realize_case(*p2, GroupMethod::kOneShot);
  ASSERT_EQ(loop.deltas.size(), oneshot.deltas.size());
  // The spaces are different objects; compare counts of each restriction.
  for (std::size_t j = 0; j < loop.deltas.size(); ++j) {
    EXPECT_DOUBLE_EQ(
        p1->space().count_transitions(loop.deltas[j] & loop.tolerance),
        p2->space().count_transitions(oneshot.deltas[j] & oneshot.tolerance))
        << "process " << j;
    // Outside the tolerance set the methods may keep different don't-cares
    // (ExpandGroup absorbs whole don't-care groups), so full counts are
    // intentionally not compared.
  }
}

TEST(RealizeTest, ExpandGroupDoesNotChangeTheResult) {
  auto p1 = cs::make_byzantine({.non_generals = 3});
  const Realized with = realize_case(*p1, GroupMethod::kPaperLoop, true);
  auto p2 = cs::make_byzantine({.non_generals = 3});
  const Realized without = realize_case(*p2, GroupMethod::kPaperLoop, false);
  for (std::size_t j = 0; j < with.deltas.size(); ++j) {
    // Identical behavior inside the tolerance set (outside it, expansion
    // may absorb extra don't-care groups).
    EXPECT_DOUBLE_EQ(
        p1->space().count_transitions(with.deltas[j] & with.tolerance),
        p2->space().count_transitions(without.deltas[j] & without.tolerance));
  }
  EXPECT_GT(with.stats.expand_successes, 0u);
  // Without expansion no widening is tried and U is empty, so each
  // process's loop ends at its first rejection, where the rest of the
  // worklist is accepted in one step: on this model that leaves fewer
  // iterations than the loop that keeps widening inside U.
  EXPECT_EQ(without.stats.expand_successes + without.stats.expand_failures,
            0u);
  EXPECT_LT(without.stats.group_iterations, with.stats.group_iterations);
}

TEST(RealizeTest, KeepsOriginalRealizableBehavior) {
  // The chain's propagation actions are realizable and inside δ'; they must
  // survive realization wherever the tolerance retains them.
  auto p = cs::make_chain({.length = 3, .domain = 3});
  const Realized r = realize_case(*p, GroupMethod::kPaperLoop);
  for (std::size_t j = 0; j < p->process_count(); ++j) {
    const bdd::Bdd original = p->process_delta(j) & r.tolerance;
    EXPECT_TRUE(original.leq(r.deltas[j])) << "process " << j;
  }
}

TEST(RealizeTest, UnionOfDeltasWithinStepOneDeltaInsideTolerance) {
  // Inside the tolerance set, realization only removes behavior.
  auto p = cs::make_token_ring({.processes = 3, .domain = 3});
  Options options;
  Stats stats;
  const StepOneResult step1 =
      add_masking(*p, p->invariant(), p->space().bdd_false(), bdd::Bdd(),
                  options, stats);
  ASSERT_TRUE(step1.success);
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p->fault_action_deltas()) parts.push_back(f);
  const bdd::Bdd tolerance = p->space().forward_reachable(
      sym::TransitionRelation::partitioned(p->space(), parts),
      step1.invariant);
  const auto deltas = realize(*p, step1.delta, tolerance, options, stats);
  for (const bdd::Bdd& dj : deltas) {
    EXPECT_TRUE((dj & tolerance).leq(step1.delta));
  }
}

std::string model_path(const std::string& name) {
  return std::string(LR_SOURCE_DIR) + "/models/" + name;
}

// --- Differential test: batched rejection vs one group at a time -----------

/// One accepted group as the journal records it.
using AcceptedEvent = std::tuple<std::size_t, double, std::size_t>;

/// Test-only reference: lines 1-22 of Algorithm 2 as printed, rejecting
/// one group per iteration. `realize` batches every rejection of a process
/// into one step and then accepts at once every group that ExpandGroup can
/// never widen; this is the loop it must agree with.
///
/// At a process's first rejection the reference computes the closed pool
/// P and U = ∪_v (P ∧ ∀(v,v′). (unchanged(v) ∧ valid ⇒ P)) over the
/// expandable v.
/// The groups it accepts from then on split into those inside U, which
/// `realize`'s loop picks one by one, and those outside U, which it
/// accepts in one bulk step. `accepted` lists the events `realize` must
/// journal, and the counters count only the picks it makes.
struct Reference {
  std::vector<bdd::Bdd> deltas;
  /// (process, transitions, nodes): the accepted groups up to the first
  /// rejection, then the bulk (union of the groups outside U) if it is
  /// not empty, then the groups inside U, in pick order.
  std::vector<AcceptedEvent> accepted;
  std::size_t rejections = 0;
  std::size_t processes_with_rejections = 0;
  std::size_t bulk_groups = 0;  ///< groups outside U, over all processes
  std::size_t bulk_events = 0;  ///< processes with a non-empty bulk
  std::size_t expand_successes = 0;
  std::size_t expand_failures = 0;
};

Reference realize_one_at_a_time(prog::DistributedProgram& program,
                                const bdd::Bdd& delta,
                                const bdd::Bdd& tolerance, bool expand) {
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  const bdd::Bdd with_outside =
      delta | (space.valid(sym::Version::kCurrent).minus(tolerance) &
               space.valid_pair());
  const bdd::Bdd proper = with_outside.minus(space.identity());
  const bdd::Bdd all_bits =
      space.cube(sym::Version::kCurrent) & space.cube(sym::Version::kNext);
  // A widening along v ranges over v's valid values only.
  const auto unchanged_valid = [&space](sym::VarId v) {
    return space.unchanged(v) & space.valid_pair();
  };
  Reference ref;
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const prog::Process& proc = program.process(j);
    const std::unordered_set<sym::VarId> writes(proc.writes.begin(),
                                                proc.writes.end());
    std::vector<sym::VarId> expandable;
    for (const sym::VarId v : proc.reads) {
      if (expand && writes.count(v) == 0) expandable.push_back(v);
    }
    bdd::Bdd pool = proper & program.respects_write(j);
    bdd::Bdd worklist = pool & tolerance;
    bdd::Bdd accepted = space.bdd_false();
    bool rejected_any = false;
    bdd::Bdd widenable;  // U, set at the first rejection
    bdd::Bdd bulk = space.bdd_false();
    std::vector<AcceptedEvent> inside;  // groups in U, after the rejection
    while (!worklist.is_false()) {
      bdd::Bdd group = program.group(j, mgr.pick_minterm(worklist, all_bits));
      if (!group.leq(pool)) {
        ++ref.rejections;
        if (!rejected_any) {
          rejected_any = true;
          const bdd::Bdd closed = program.realizable_subset(j, pool);
          widenable = space.bdd_false();
          for (const sym::VarId v : expandable) {
            const sym::VarId vs[1] = {v};
            widenable |= closed & mgr.forall(unchanged_valid(v).implies(closed),
                                             space.cube_pair_of(vs));
          }
        }
        pool = pool.minus(group);
        worklist = worklist.minus(group);
        continue;
      }
      // U is group-closed: a group lies wholly inside it or outside it.
      const bool in_loop = !rejected_any || group.leq(widenable);
      EXPECT_TRUE(in_loop || group.disjoint(widenable))
          << "process " << j << ": a group straddles U";
      for (const sym::VarId v : expandable) {
        const sym::VarId vs[1] = {v};
        const bdd::Bdd widened =
            mgr.exists(group, space.cube_pair_of(vs)) & unchanged_valid(v);
        if (widened.leq(pool)) {
          // A widened set lies in U, so no group outside U is ever widened.
          EXPECT_TRUE(!rejected_any || widened.leq(widenable))
              << "process " << j << ": a widening leaves U";
          group = widened;
          if (in_loop) ++ref.expand_successes;
        } else if (in_loop) {
          ++ref.expand_failures;
        }
      }
      const AcceptedEvent event(j, space.count_transitions(group),
                                group.node_count());
      if (!rejected_any) {
        ref.accepted.push_back(event);
      } else if (in_loop) {
        inside.push_back(event);
      } else {
        ++ref.bulk_groups;
        bulk |= group;
      }
      accepted |= group;
      pool = pool.minus(group);
      worklist = worklist.minus(group);
    }
    if (!bulk.is_false()) {
      ++ref.bulk_events;
      ref.accepted.emplace_back(j, space.count_transitions(bulk),
                                bulk.node_count());
    }
    ref.accepted.insert(ref.accepted.end(), inside.begin(), inside.end());
    if (rejected_any) ++ref.processes_with_rejections;
    ref.deltas.push_back(std::move(accepted));
  }
  return ref;
}

/// Runs Step 1 on `p`, then `realize` beside the reference loop, with
/// ExpandGroup on and off. Returns false when Step 1 fails (nothing to
/// compare); adds to `rejections` the reference's rejected groups and to
/// `bulk_groups` the groups it accepted outside U.
bool expect_batched_matches_reference(prog::DistributedProgram& p,
                                      const std::string& what,
                                      std::size_t& rejections,
                                      std::size_t& bulk_groups) {
  Options options;
  Stats step1_stats;
  const StepOneResult step1 = add_masking(
      p, p.invariant(), p.space().bdd_false(), bdd::Bdd(), options,
      step1_stats);
  if (!step1.success) return false;
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p.fault_action_deltas()) parts.push_back(f);
  const bdd::Bdd tolerance = p.space().forward_reachable(
      sym::TransitionRelation::partitioned(p.space(), parts),
      step1.invariant);

  for (const bool expand : {true, false}) {
    const Reference ref =
        realize_one_at_a_time(p, step1.delta, tolerance, expand);
    rejections += ref.rejections;
    bulk_groups += ref.bulk_groups;
    const std::string config = what + (expand ? " expand" : " no-expand");
    Journal journal;
    journal.begin_run(p, "lazy", "masking");
    options.use_expand_group = expand;
    options.journal = &journal;
    Stats stats;
    const std::vector<bdd::Bdd> deltas =
        realize(p, step1.delta, tolerance, options, stats);

    if (deltas.size() != ref.deltas.size()) {
      ADD_FAILURE() << config << ": " << deltas.size()
                    << " deltas, reference " << ref.deltas.size();
      return true;
    }
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      EXPECT_TRUE(deltas[j] == ref.deltas[j])
          << config << ": process " << j << " delta differs";
    }
    std::vector<AcceptedEvent> accepted;
    for (const JournalEvent& event : journal.events()) {
      if (event.kind != "group" || event.text.at("decision") != "accepted") {
        continue;
      }
      accepted.emplace_back(
          static_cast<std::size_t>(event.num.at("process")),
          event.num.at("trans"),
          static_cast<std::size_t>(event.num.at("nodes")));
    }
    EXPECT_EQ(accepted, ref.accepted) << config << ": accepted events";
    EXPECT_EQ(stats.expand_successes, ref.expand_successes) << config;
    EXPECT_EQ(stats.expand_failures, ref.expand_failures) << config;
    // One iteration per group the loop picks and accepts, plus the one
    // that triggers each process's batch; a bulk step is not a pick.
    EXPECT_EQ(stats.group_iterations, ref.accepted.size() - ref.bulk_events +
                                          ref.processes_with_rejections)
        << config;
  }
  return true;
}

TEST(RealizeBatchTest, CaseStudiesMatchOneGroupAtATime) {
  using Factory = std::function<std::unique_ptr<prog::DistributedProgram>()>;
  const auto model_file = [](const char* name) -> Factory {
    return [name] { return lang::parse_program_file(model_path(name)); };
  };
  const std::vector<std::pair<std::string, Factory>> cases = {
      {"tmr", [] { return cs::make_tmr({}); }},
      {"token_ring", [] { return cs::make_token_ring({}); }},
      {"byzantine", [] { return cs::make_byzantine({}); }},
      {"Sc^5 d3", [] { return cs::make_chain({.length = 5, .domain = 3}); }},
      {"mutex_ring", model_file("mutex_ring.lr")},
      {"quickstart", model_file("quickstart.lr")},
  };
  std::size_t rejections = 0;
  std::size_t bulk_groups = 0;
  for (const auto& [name, make] : cases) {
    const std::unique_ptr<prog::DistributedProgram> p = make();
    EXPECT_TRUE(
        expect_batched_matches_reference(*p, name, rejections, bulk_groups))
        << name << ": Step 1 failed";
  }
  // mutex_ring rejects groups, so the batch and the bulk step were
  // exercised.
  EXPECT_GT(rejections, 0u);
  EXPECT_GT(bulk_groups, 0u);
}

TEST(RealizeTest, ExpandGroupWidensAlongNonPowerOfTwoDomains) {
  // p reads y and ignores it, so ExpandGroup widens its one group along y
  // to every value of y. A 3-valued y has out-of-domain encodings, which
  // are never in the pool; the widening must not ask for them.
  for (const char* domain : {"0..2", "0..3"}) {
    auto p = lang::parse_program(std::string(R"(
      program expand_domain;
      var x : 0..1;
      var y : )") + domain + R"(;
      process p { reads x, y; writes x; action reset: x == 1 -> x := 0; }
      process q { reads y; writes y; }
      fault glitch: x == 0 -> x := 1;
      invariant x == 0;
    )");
    const Realized r = realize_case(*p, GroupMethod::kPaperLoop);
    EXPECT_EQ(r.stats.group_iterations, 1u) << "y : " << domain;
    EXPECT_EQ(r.stats.expand_successes, 1u) << "y : " << domain;
    EXPECT_EQ(r.stats.expand_failures, 0u) << "y : " << domain;
    std::size_t rejections = 0;
    std::size_t bulk_groups = 0;
    EXPECT_TRUE(expect_batched_matches_reference(
        *p, std::string("y : ") + domain, rejections, bulk_groups));
  }
}

// Lazy repair's use of the local livelock proof (find_livelock_certificate)
// relies on every δ_j changing only writes_j. Algorithm 2 ensures it; this pins it down.
TEST(RealizeTest, CaseStudyDeltasChangeOnlyTheirWrites) {
  using Factory = std::function<std::unique_ptr<prog::DistributedProgram>()>;
  const auto model_file = [](const char* name) -> Factory {
    return [name] { return lang::parse_program_file(model_path(name)); };
  };
  const std::vector<std::pair<std::string, Factory>> cases = {
      {"tmr", [] { return cs::make_tmr({}); }},
      {"token_ring", [] { return cs::make_token_ring({}); }},
      {"byzantine", [] { return cs::make_byzantine({}); }},
      {"byzantine fail-stop",
       [] { return cs::make_byzantine({.fail_stop = true}); }},
      {"Sc^5 d3", [] { return cs::make_chain({.length = 5, .domain = 3}); }},
      {"mutex_ring", model_file("mutex_ring.lr")},
      {"quickstart", model_file("quickstart.lr")},
  };
  for (const auto& [name, make] : cases) {
    for (const GroupMethod method :
         {GroupMethod::kPaperLoop, GroupMethod::kOneShot}) {
      const std::unique_ptr<prog::DistributedProgram> p = make();
      const Realized r = realize_case(*p, method);
      ASSERT_EQ(r.deltas.size(), p->process_count()) << name;
      for (std::size_t j = 0; j < r.deltas.size(); ++j) {
        EXPECT_TRUE(r.deltas[j].leq(p->respects_write(j)))
            << name << " process " << j;
      }
    }
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

TEST(RealizeBatchTest, RandomModelsMatchOneGroupAtATime) {
  const std::uint64_t base = env_u64("LR_FUZZ_SEED", 20160523ull);
  const std::size_t per_shard =
      static_cast<std::size_t>(env_u64("LR_FUZZ_MODELS", 64));
  std::size_t compared = 0;
  std::size_t rejections = 0;
  std::size_t bulk_groups = 0;
  for (const char* topology : {"random", "ring", "tree", "star"}) {
    for (const char* faults : {"havoc", "corrupt"}) {
      ::setenv("LR_FUZZ_TOPOLOGY", topology, 1);
      ::setenv("LR_FUZZ_FAULTS", faults, 1);
      for (std::size_t i = 0; i < per_shard; ++i) {
        const std::uint64_t seed = testgen::model_seed(base, i);
        support::SplitMix64 rng(seed);
        const std::unique_ptr<prog::DistributedProgram> p =
            testgen::random_program(rng);
        const std::string what = std::string(topology) + "/" + faults +
                                 " seed " + std::to_string(seed);
        if (expect_batched_matches_reference(*p, what, rejections,
                                             bulk_groups)) {
          ++compared;
        }
        if (::testing::Test::HasFailure()) {
          std::fprintf(stderr,
                       "[fuzz] repro: LR_FUZZ_SEED=%llu LR_FUZZ_MODELS=1 "
                       "./test_realize --gtest_filter='*RandomModels*' "
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
  // A sweep where Step 1 never succeeds, or nothing is ever rejected,
  // compares nothing interesting.
  EXPECT_GT(compared, per_shard);
  EXPECT_GT(rejections, 0u);
  EXPECT_GT(bulk_groups, 0u);
}

TEST(RealizeTest, GroupIterationsAreCounted) {
  // mutex_ring rejects groups in two processes. The loop spends one
  // iteration per group it picks and accepts, plus the one that triggers
  // each process's batch; the bulk step after it is an accepted event but
  // not an iteration, and a process has at most one.
  auto p = lang::parse_program_file(model_path("mutex_ring.lr"));
  Journal journal;
  journal.begin_run(*p, "lazy", "masking");
  Options options;
  options.journal = &journal;
  Stats stats;
  const StepOneResult step1 = add_masking(
      *p, p->invariant(), p->space().bdd_false(), bdd::Bdd(), options, stats);
  ASSERT_TRUE(step1.success);
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p->fault_action_deltas()) parts.push_back(f);
  const bdd::Bdd tolerance = p->space().forward_reachable(
      sym::TransitionRelation::partitioned(p->space(), parts),
      step1.invariant);
  (void)realize(*p, step1.delta, tolerance, options, stats);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const JournalEvent& event : journal.events()) {
    if (event.kind != "group") continue;
    (event.text.at("decision") == "accepted" ? accepted : rejected) += 1;
  }
  EXPECT_GT(rejected, 0u) << "mutex_ring must exercise a rejection";
  EXPECT_LE(rejected, p->process_count());
  EXPECT_GE(stats.group_iterations, accepted);
  EXPECT_LE(stats.group_iterations, accepted + rejected);

  auto p2 = cs::make_chain({.length = 3, .domain = 2});
  const Realized o = realize_case(*p2, GroupMethod::kOneShot);
  EXPECT_EQ(o.stats.group_iterations, 0u);
}

TEST(RealizeTest, ProfilingDoesNotChangeThePlan) {
  // Profiling only observes: realize must run the same loop, op for op,
  // with the profiler on.
  struct Run {
    std::vector<std::pair<double, std::size_t>> deltas;  // (trans, nodes)
    std::uint64_t lookups = 0;
  };
  const auto run = [](bool profiled) {
    auto p = lang::parse_program_file(model_path("mutex_ring.lr"));
    Options options;
    Stats stats;
    const StepOneResult step1 =
        add_masking(*p, p->invariant(), p->space().bdd_false(), bdd::Bdd(),
                    options, stats);
    EXPECT_TRUE(step1.success);
    std::vector<bdd::Bdd> parts{step1.delta};
    for (const bdd::Bdd& f : p->fault_action_deltas()) parts.push_back(f);
    const bdd::Bdd tolerance = p->space().forward_reachable(
        sym::TransitionRelation::partitioned(p->space(), parts),
        step1.invariant);
    bdd::profile::set_enabled(profiled);
    bdd::Manager& mgr = p->space().manager();
    const std::uint64_t before = mgr.stats().cache_lookups;
    const std::vector<bdd::Bdd> deltas =
        realize(*p, step1.delta, tolerance, options, stats);
    Run out;
    out.lookups = mgr.stats().cache_lookups - before;
    bdd::profile::set_enabled(false);
    for (const bdd::Bdd& d : deltas) {
      out.deltas.emplace_back(p->space().count_transitions(d),
                              d.node_count());
    }
    return out;
  };
  const Run plain = run(false);
  const Run profiled = run(true);
  EXPECT_GT(plain.lookups, 0u);
  EXPECT_EQ(profiled.lookups, plain.lookups);
  EXPECT_EQ(profiled.deltas, plain.deltas);
}

}  // namespace
}  // namespace lr::repair
