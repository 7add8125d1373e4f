// Tests for the .lr exporter: round trips (repair -> export -> parse ->
// verify) on several case studies, and checks of the export against the
// repair it renders (the *MatchReference tests): byte for byte against a
// one-pass reference renderer of the same covers, and semantically, that
// each cover is irredundant and the parsed-back export is the repaired
// δ_j on the fault span.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/parser.hpp"
#include "repair/describe.hpp"
#include "repair/export.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"
#include "support/fs.hpp"
#include "support/rng.hpp"
#include "../support/model_gen.hpp"

namespace lr::repair {
namespace {

void round_trip(prog::DistributedProgram& program) {
  const RepairResult result = lazy_repair(program);
  ASSERT_TRUE(result.success) << result.failure_reason;
  const std::string exported = export_model(program, result);
  SCOPED_TRACE(exported);

  // The exported text parses.
  auto reparsed = lang::parse_program(exported);
  ASSERT_EQ(reparsed->process_count(), program.process_count());

  // The exported program is already masking fault-tolerant: repairing it
  // again succeeds and the verified result keeps all its behavior inside
  // the invariant (the re-repair has nothing to remove there).
  const RepairResult again = lazy_repair(*reparsed);
  ASSERT_TRUE(again.success) << again.failure_reason;
  const VerifyReport report = verify_masking(*reparsed, again);
  EXPECT_TRUE(report.ok);
  for (const auto& f : report.failures) ADD_FAILURE() << f;
}

TEST(ExportTest, QuickstartRoundTrip) {
  auto p = lang::parse_program(R"(
program quickstart;
var x : 0..2;
process worker {
  reads x;
  writes x;
  action reset: x == 1 -> x := 0;
}
fault glitch: x == 0 -> x := 1;
invariant x == 0;
bad_state x == 2;
)");
  round_trip(*p);
}

TEST(ExportTest, ChainRoundTrip) {
  auto p = cs::make_chain({.length = 3, .domain = 2});
  round_trip(*p);
}

TEST(ExportTest, TokenRingRoundTrip) {
  auto p = cs::make_token_ring({.processes = 3, .domain = 3});
  round_trip(*p);
}

TEST(ExportTest, TmrRoundTrip) {
  auto p = cs::make_tmr({});
  round_trip(*p);
}

// Dotted names (d.g, b.j) and domain-3 decision variables, whose unused
// encoding gives inconsistent cubes, `{...}` updates and disjunctive guards.
TEST(ExportTest, ByzantineRoundTrip) {
  auto p = cs::make_byzantine({.non_generals = 3});
  round_trip(*p);
}

TEST(ExportTest, ExportMentionsEveryDeclaredPiece) {
  auto p = cs::make_tmr({});
  const RepairResult result = lazy_repair(*p);
  ASSERT_TRUE(result.success);
  const std::string text = export_model(*p, result);
  EXPECT_NE(text.find("program tmr_3;"), std::string::npos);
  EXPECT_NE(text.find("var ref : 0..1;"), std::string::npos);
  EXPECT_NE(text.find("process voter"), std::string::npos);
  EXPECT_NE(text.find("fault corrupt_in0"), std::string::npos);
  EXPECT_NE(text.find("invariant"), std::string::npos);
  EXPECT_NE(text.find("bad_state"), std::string::npos);
  EXPECT_NE(text.find("bad_transition"), std::string::npos);
}

// --- The export against the repair it renders ----------------------------

// A one-pass reference for export_model: the same cover of each process
// (process_cover's interval through Manager::isop), with the text built
// cube by cube in an ostringstream and every term recomputed from the
// cube's bits. The renderer's term memo must match it byte for byte.
std::vector<std::uint32_t> reference_matching_values(
    const sym::VariableInfo& info, std::span<const signed char> cube,
    bool next_copy) {
  const auto& bits = next_copy ? info.next_bits : info.cur_bits;
  std::vector<std::uint32_t> values;
  for (std::uint32_t v = 0; v < info.domain; ++v) {
    bool consistent = true;
    for (std::uint32_t k = 0; k < info.bits; ++k) {
      const signed char b = cube[bits[k]];
      if (b >= 0 && static_cast<std::uint32_t>(b) != ((v >> k) & 1u)) {
        consistent = false;
        break;
      }
    }
    if (consistent) values.push_back(v);
  }
  return values;
}

std::string reference_guard_term(const std::string& name,
                                 const std::vector<std::uint32_t>& values,
                                 std::uint32_t domain) {
  if (values.size() == domain) return "";
  std::string term;
  for (const std::uint32_t v : values) {
    if (!term.empty()) term += " || ";
    term += name + " == " + std::to_string(v);
  }
  return values.size() == 1 ? term : "(" + term + ")";
}

std::string reference_sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

void reference_render_action(std::ostringstream& out,
                             const lang::Action& action,
                             const sym::Space& space) {
  out << reference_sanitize(action.name) << ": "
      << action.guard.to_string(space) << " -> ";
  bool first = true;
  for (const auto& assign : action.assigns) {
    if (!first) out << ", ";
    first = false;
    out << space.info(assign.var).name << " := ";
    if (assign.alternatives.size() == 1) {
      out << assign.alternatives.front().to_string(space);
    } else {
      out << "{";
      for (std::size_t i = 0; i < assign.alternatives.size(); ++i) {
        if (i > 0) out << ", ";
        out << assign.alternatives[i].to_string(space);
      }
      out << "}";
    }
  }
  for (const sym::VarId v : action.havoc) {
    if (!first) out << ", ";
    first = false;
    out << "havoc " << space.info(v).name;
  }
  out << ";";
}

/// With `exact`, each process's cover is of [lower, lower] instead: the
/// export with no don't-cares.
std::string reference_export(prog::DistributedProgram& program,
                             const RepairResult& result, bool exact = false) {
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  std::ostringstream out;

  out << "// Synthesized by lazyrepair: masking fault-tolerant version of '"
      << program.name() << "'.\n";
  out << "program " << reference_sanitize(program.name()) << ";\n\n";

  for (sym::VarId v = 0; v < space.variable_count(); ++v) {
    const auto& info = space.info(v);
    out << "var " << info.name << " : 0.." << (info.domain - 1) << ";\n";
  }

  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const prog::Process& proc = program.process(j);
    out << "\nprocess " << reference_sanitize(proc.name) << " {\n  reads ";
    for (std::size_t i = 0; i < proc.reads.size(); ++i) {
      if (i > 0) out << ", ";
      out << space.info(proc.reads[i]).name;
    }
    out << ";\n  writes ";
    for (std::size_t i = 0; i < proc.writes.size(); ++i) {
      if (i > 0) out << ", ";
      out << space.info(proc.writes[i]).name;
    }
    out << ";\n";

    const ProcessCover cover = process_cover(
        program, j, result.process_deltas[j], result.fault_span);
    std::size_t counter = 0;
    mgr.isop(cover.lower, exact ? cover.lower : cover.upper)
        .foreach_cube([&](std::span<const signed char> cube) {
          std::string guard;
          for (const sym::VarId r : proc.reads) {
            const auto values =
                reference_matching_values(space.info(r), cube, false);
            const std::string term = reference_guard_term(
                space.info(r).name, values, space.info(r).domain);
            if (term.empty()) continue;
            if (!guard.empty()) guard += " && ";
            guard += term;
          }
          std::string update;
          for (const sym::VarId w : proc.writes) {
            const auto values =
                reference_matching_values(space.info(w), cube, true);
            if (values.empty()) return;  // inconsistent encoding: skip
            if (!update.empty()) update += ", ";
            update += space.info(w).name + " := ";
            if (values.size() == 1) {
              update += std::to_string(values.front());
            } else {
              update += "{";
              for (std::size_t i = 0; i < values.size(); ++i) {
                if (i > 0) update += ", ";
                update += std::to_string(values[i]);
              }
              update += "}";
            }
          }
          if (update.empty()) return;
          if (guard.empty()) guard = "true";
          out << "  action a" << counter++ << ": " << guard << " -> "
              << update << ";\n";
        });
    out << "}\n";
  }

  out << "\n";
  for (const lang::Action& fault : program.fault_actions()) {
    out << "fault ";
    reference_render_action(out, fault, space);
    out << "\n";
  }

  // S′, as the disjunction of its cover's cubes.
  out << "\ninvariant ";
  std::string invariant;
  mgr.isop(result.invariant,
           result.invariant | ~space.valid(sym::Version::kCurrent))
      .foreach_cube([&](std::span<const signed char> cube) {
        std::vector<std::string> terms;
        for (sym::VarId v = 0; v < space.variable_count(); ++v) {
          const std::string term = reference_guard_term(
              space.info(v).name,
              reference_matching_values(space.info(v), cube, false),
              space.info(v).domain);
          if (!term.empty()) terms.push_back(term);
        }
        std::string conjunction = terms.empty() ? "true" : terms.front();
        for (std::size_t i = 1; i < terms.size(); ++i) {
          conjunction += " && " + terms[i];
        }
        if (!invariant.empty()) invariant += " || ";
        invariant += terms.size() > 1 ? "(" + conjunction + ")" : conjunction;
      });
  out << (invariant.empty() ? "false" : invariant) << ";\n";
  for (const lang::Expr& e : program.bad_state_expressions()) {
    out << "bad_state " << e.to_string(space) << ";\n";
  }
  for (const lang::Expr& e : program.bad_transition_expressions()) {
    out << "bad_transition " << e.to_string(space) << ";\n";
  }
  return out.str();
}

/// Reports the first differing byte instead of two whole exports.
void expect_same_text(const std::string& actual, const std::string& expected,
                      const std::string& what) {
  if (actual == expected) return;
  std::size_t at = 0;
  while (at < actual.size() && at < expected.size() &&
         actual[at] == expected[at]) {
    ++at;
  }
  const std::size_t from = at < 80 ? 0 : at - 80;
  ADD_FAILURE() << what << ": differs at byte " << at << " (sizes "
                << actual.size() << " vs " << expected.size()
                << ")\n  got:      " << actual.substr(from, 160)
                << "\n  expected: " << expected.substr(from, 160);
}

/// The cube (per variable -1/0/1) as a conjunction of literals in `mgr`.
bdd::Bdd cube_bdd(bdd::Manager& mgr, std::span<const signed char> cube) {
  bdd::Bdd term = mgr.bdd_true();
  for (std::size_t v = 0; v < cube.size(); ++v) {
    const auto var = static_cast<bdd::VarIndex>(v);
    if (cube[v] == 0) term &= mgr.bdd_nvar(var);
    if (cube[v] == 1) term &= mgr.bdd_var(var);
  }
  return term;
}

/// f copied into `to`, a manager with the same variables (by index), through
/// an exact cover of f.
bdd::Bdd transfer(bdd::Manager& from, const bdd::Bdd& f, bdd::Manager& to) {
  bdd::Bdd out = to.bdd_false();
  from.isop(f, f).foreach_cube([&](std::span<const signed char> cube) {
    out |= cube_bdd(to, cube);
  });
  return out;
}

/// Paths from f's root to the 1-terminal: the number of commands the
/// one-per-path renderer wrote for f.
double path_count(bdd::Manager& mgr, const bdd::Bdd& f,
                  std::unordered_map<bdd::Bdd, double>& memo) {
  if (f.is_false()) return 0.0;
  if (f.is_true()) return 1.0;
  if (const auto it = memo.find(f); it != memo.end()) return it->second;
  const bdd::VarIndex top = mgr.support(f).front();
  const double paths = path_count(mgr, mgr.cofactor(f, top, false), memo) +
                       path_count(mgr, mgr.cofactor(f, top, true), memo);
  memo.emplace(f, paths);
  return paths;
}

/// Commands in the block of the j-th process of `text`.
std::size_t command_count(const std::string& text, std::size_t j) {
  std::size_t from = text.find("\nprocess ");
  for (std::size_t k = 0; k < j && from != std::string::npos; ++k) {
    from = text.find("\nprocess ", from + 1);
  }
  if (from == std::string::npos) return 0;
  const std::size_t to = text.find("\n}\n", from);
  std::size_t count = 0;
  for (std::size_t at = text.find("\n  action ", from); at < to;
       at = text.find("\n  action ", at + 1)) {
    ++count;
  }
  return count;
}

/// Checks one process's cover: lower == proj(δ_j ∧ T′); the cover equals
/// lower on every j-view with a state in T′;
/// every cube covers a minterm of lower that no other cube covers; no more
/// cubes than the projection has paths; one command per cube in `text`.
void expect_irredundant_process_cover(prog::DistributedProgram& program,
                                      const RepairResult& result,
                                      std::size_t j, const std::string& text,
                                      const std::string& what) {
  bdd::Manager& mgr = program.space().manager();
  const ProcessCover cover = process_cover(program, j, result.process_deltas[j],
                                           result.fault_span);
  const ProcessCover exact = process_cover(
      program, j, result.process_deltas[j] & result.fault_span, bdd::Bdd());
  EXPECT_EQ(cover.lower, exact.lower) << what << " process " << j;
  const bdd::Bdd pinned =
      mgr.exists(result.fault_span, program.unreadable_cube(j));

  std::vector<bdd::Bdd> cubes;
  bdd::Bdd once = mgr.bdd_false();
  bdd::Bdd twice = mgr.bdd_false();
  mgr.isop(cover.lower, cover.upper)
      .foreach_cube([&](std::span<const signed char> values) {
        const bdd::Bdd cube = cube_bdd(mgr, values);
        twice |= once & cube;
        once |= cube;
        cubes.push_back(cube);
      });
  EXPECT_TRUE(cover.lower.leq(once)) << what << " process " << j;
  EXPECT_TRUE(once.leq(cover.upper)) << what << " process " << j;
  EXPECT_EQ(once & pinned, cover.lower) << what << " process " << j;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    EXPECT_FALSE(cubes[i].disjoint(cover.lower.minus(twice)))
        << what << " process " << j << ": cube " << i << " is redundant";
  }
  std::unordered_map<bdd::Bdd, double> memo;
  EXPECT_LE(static_cast<double>(cubes.size()),
            path_count(mgr, exact.lower, memo))
      << what << " process " << j;
  if (!program.process(j).writes.empty()) {
    EXPECT_EQ(command_count(text, j), cubes.size())
        << what << " process " << j;
  }
}

/// Repairs `program`, exports it and checks the export against the
/// repair: byte for byte against reference_export, each process's commands
/// an irredundant cover (expect_irredundant_process_cover), the parsed
/// export's invariant exactly S′ and its relation of each process on the
/// fault span T′ exactly the repaired δ_j ∧ T′. export_model itself throws
/// if its measuring walk and its writing walk disagree on the length. With
/// `file_path`, export_model_file must write the same bytes. False when
/// the repair fails (nothing to export).
bool expect_export_matches_repair(prog::DistributedProgram& program,
                                  const std::string& what,
                                  const std::string& file_path = "") {
  const RepairResult result = lazy_repair(program);
  if (!result.success) return false;
  const std::string text = export_model(program, result);
  expect_same_text(text, reference_export(program, result), what);
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    expect_irredundant_process_cover(program, result, j, text, what);
  }
  bdd::Manager& mgr = program.space().manager();
  const std::unique_ptr<prog::DistributedProgram> reparsed =
      lang::parse_program(text);
  EXPECT_EQ(reparsed->process_count(), program.process_count()) << what;
  bdd::Manager& other = reparsed->space().manager();
  EXPECT_EQ(reparsed->invariant(), transfer(mgr, result.invariant, other))
      << what;
  const bdd::Bdd span = transfer(mgr, result.fault_span, other);
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const bdd::Bdd expected =
        transfer(mgr, result.process_deltas[j] & result.fault_span, other);
    EXPECT_EQ(reparsed->process_delta(j) & span, expected)
        << what << " process " << j;
  }
  if (!file_path.empty()) {
    EXPECT_TRUE(export_model_file(program, result, file_path)) << what;
    const std::optional<std::string> written = support::read_file(file_path);
    EXPECT_TRUE(written.has_value()) << what;
    if (written) expect_same_text(*written, text, what + " (file)");
    EXPECT_FALSE(support::read_file(file_path + ".tmp").has_value()) << what;
    std::remove(file_path.c_str());
  }
  return true;
}

std::string model_path(const std::string& name) {
  return std::string(LR_SOURCE_DIR) + "/models/" + name;
}

TEST(ExportRendererTest, CaseStudiesMatchReference) {
  using Factory = std::function<std::unique_ptr<prog::DistributedProgram>()>;
  const std::vector<std::pair<std::string, Factory>> cases = {
      {"tmr", [] { return cs::make_tmr({}); }},
      {"quickstart",
       [] { return lang::parse_program_file(model_path("quickstart.lr")); }},
      {"mutex_ring",
       [] { return lang::parse_program_file(model_path("mutex_ring.lr")); }},
      {"token_ring", [] { return cs::make_token_ring({}); }},
      {"Sc^4 d8", [] { return cs::make_chain({.length = 4, .domain = 8}); }},
      {"BA^3", [] { return cs::make_byzantine({.non_generals = 3}); }},
      {"BA^4", [] { return cs::make_byzantine({.non_generals = 4}); }},
      {"BAFS^3",
       [] {
         return cs::make_byzantine({.non_generals = 3, .fail_stop = true});
       }},
  };
  const std::string file = ::testing::TempDir() + "export_renderer_case.lr";
  for (const auto& [name, make] : cases) {
    const std::unique_ptr<prog::DistributedProgram> p = make();
    EXPECT_TRUE(expect_export_matches_repair(*p, name, file))
        << name << ": repair failed";
  }
}

// The export declares S′, so verify_tolerant_model derives S′ back and
// searches only T′, where the commands are exact: it accepts the export at
// every level, with the same span, as it accepts the export with no
// don't-cares.
TEST(ExportRendererTest, VerifierAcceptsTheExportWhateverItsDontCares) {
  using Factory = std::function<std::unique_ptr<prog::DistributedProgram>()>;
  const std::vector<std::pair<std::string, Factory>> cases = {
      {"tmr.lr", [] { return lang::parse_program_file(model_path("tmr.lr")); }},
      {"quickstart",
       [] { return lang::parse_program_file(model_path("quickstart.lr")); }},
      {"mutex_ring",
       [] { return lang::parse_program_file(model_path("mutex_ring.lr")); }},
      {"BA^3", [] { return cs::make_byzantine({.non_generals = 3}); }},
      {"BA^4", [] { return cs::make_byzantine({.non_generals = 4}); }},
      {"BAFS^3",
       [] {
         return cs::make_byzantine({.non_generals = 3, .fail_stop = true});
       }},
  };
  std::size_t differing = 0;
  for (const auto& [name, make] : cases) {
    const std::unique_ptr<prog::DistributedProgram> p = make();
    const RepairResult result = lazy_repair(*p);
    ASSERT_TRUE(result.success) << name;
    const std::string text = export_model(*p, result);
    const std::string exact = reference_export(*p, result, /*exact=*/true);
    if (text != exact) ++differing;
    for (const ToleranceLevel level :
         {ToleranceLevel::kMasking, ToleranceLevel::kFailsafe,
          ToleranceLevel::kNonmasking}) {
      const VerifyReport got =
          verify_tolerant_model(*lang::parse_program(text), level);
      const VerifyReport want =
          verify_tolerant_model(*lang::parse_program(exact), level);
      const std::string what =
          name + " at " + tolerance_level_name(level);
      EXPECT_TRUE(got.ok) << what;
      for (const std::string& failure : got.failures) {
        ADD_FAILURE() << what << ": " << failure;
      }
      EXPECT_TRUE(want.ok) << what;
      EXPECT_EQ(got.reachable_span_states, want.reachable_span_states)
          << what;
    }
  }
  // The byzantine exports take don't-cares; the shipped models need none.
  EXPECT_GE(differing, 3u);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

TEST(ExportRendererTest, RandomModelsMatchReference) {
  const std::uint64_t base = env_u64("LR_FUZZ_SEED", 20160523ull);
  const std::size_t per_shard =
      static_cast<std::size_t>(env_u64("LR_FUZZ_MODELS", 32));
  std::size_t compared = 0;
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
        if (expect_export_matches_repair(*p, what)) ++compared;
        if (::testing::Test::HasFailure()) {
          std::fprintf(stderr,
                       "[fuzz] repro: LR_FUZZ_SEED=%llu LR_FUZZ_MODELS=1 "
                       "./test_export --gtest_filter='*RandomModels*' "
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
  // A sweep where repair never succeeds exports nothing.
  EXPECT_GT(compared, per_shard);
}

// A 16-bit variable: the term memo must be filled on demand (a table over
// every partial assignment would need 3^16 entries). `x != 0` projects to
// partial cubes whose guards list up to 32768 values each; the reference
// renderer checks every one of them, and the parse-back compiles and tears
// down `||` chains that long.
TEST(ExportRendererTest, WideDomainMatchesReference) {
  auto p = lang::parse_program(R"(
program wide;
var x : 0..65535;
var y : 0..1;
process worker {
  reads x, y;
  writes x;
  action reset: x != 0 && y == 0 -> x := 0;
  action pick: x == 0 && y == 1 -> x := {4, 5};
}
fault glitch: x == 0 && y == 0 -> havoc x;
invariant y == 1 || x == 0;
)");
  EXPECT_TRUE(expect_export_matches_repair(
      *p, "wide", ::testing::TempDir() + "export_renderer_wide.lr"));
}

}  // namespace
}  // namespace lr::repair
