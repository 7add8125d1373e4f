#include "repair/describe.hpp"

#include <algorithm>
#include <cstdio>

#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace lr::repair {

namespace {

/// Per-variable rendering of the bits a cube determines: value when all
/// bits are fixed, bit-pattern otherwise ("?" marks free bits).
std::string render_bits(const sym::VariableInfo& info,
                        std::span<const signed char> cube, bool next_copy) {
  const auto& bits = next_copy ? info.next_bits : info.cur_bits;
  bool all_fixed = true;
  bool any_fixed = false;
  std::uint32_t value = 0;
  for (std::uint32_t k = 0; k < info.bits; ++k) {
    const signed char b = cube[bits[k]];
    if (b < 0) {
      all_fixed = false;
    } else {
      any_fixed = true;
      if (b > 0) value |= 1u << k;
    }
  }
  if (!any_fixed) return "";
  if (all_fixed) return std::to_string(value);
  std::string pattern = "0b";
  for (std::int32_t k = static_cast<std::int32_t>(info.bits) - 1; k >= 0;
       --k) {
    const signed char b = cube[bits[k]];
    pattern += b < 0 ? '?' : static_cast<char>('0' + b);
  }
  return pattern;
}

}  // namespace

ProcessCover process_cover(prog::DistributedProgram& program,
                           std::size_t process_index,
                           const bdd::Bdd& delta_j,
                           const bdd::Bdd& restrict_to) {
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  const prog::Process& proc = program.process(process_index);
  const bdd::Bdd& unreadable = program.unreadable_cube(process_index);
  // Project away the unreadable variables: the result is over readable
  // current values and written next values only (group-closure makes this
  // lossless; `same_unreadable` was a tautology on δ_j anyway).
  const bdd::Bdd readable = mgr.exists(delta_j, unreadable);
  // Drop next-state copies of unwritten-but-readable variables (they equal
  // their current values).
  std::vector<bdd::VarIndex> frame_bits;
  for (const sym::VarId r : proc.reads) {
    if (std::ranges::find(proc.writes, r) != proc.writes.end()) continue;
    const auto& info = space.info(r);
    frame_bits.insert(frame_bits.end(), info.next_bits.begin(),
                      info.next_bits.end());
  }
  const bdd::Bdd projected = mgr.exists(readable, mgr.make_cube(frame_bits));
  if (!restrict_to.valid()) return {projected, projected};
  const bdd::Bdd completable = mgr.exists(restrict_to, unreadable);
  return {projected & completable, projected | ~completable};
}

std::vector<std::string> describe_process_program(
    prog::DistributedProgram& program, std::size_t process_index,
    const bdd::Bdd& delta_j, const bdd::Bdd& restrict_to,
    std::size_t max_lines) {
  sym::Space& space = program.space();
  const prog::Process& proc = program.process(process_index);
  const ProcessCover bounds =
      process_cover(program, process_index, delta_j, restrict_to);

  std::vector<std::string> lines;
  bool truncated = false;
  space.manager().isop(bounds.lower, bounds.upper).foreach_cube(
      [&](std::span<const signed char> cube) {
        if (lines.size() >= max_lines) {
          truncated = true;
          return;
        }
        std::string guard;
        std::string update;
        for (const sym::VarId r : proc.reads) {
          const std::string value = render_bits(space.info(r), cube, false);
          if (value.empty()) continue;
          if (!guard.empty()) guard += " && ";
          guard += space.info(r).name + "==" + value;
        }
        for (const sym::VarId w : proc.writes) {
          const std::string value = render_bits(space.info(w), cube, true);
          if (value.empty()) continue;
          if (!update.empty()) update += ", ";
          update += space.info(w).name + ":=" + value;
        }
        if (update.empty()) return;  // frame-only cube: no visible effect
        if (guard.empty()) guard = "true";
        lines.push_back(guard + "  -->  " + update);
      });
  if (truncated) lines.push_back("...");
  return lines;
}

std::vector<std::string> describe_stats(const Stats& stats) {
  std::vector<std::string> lines;
  const auto line = [&lines](const std::string& name,
                             const std::string& value) {
    lines.push_back(name + ": " + value);
  };
  const auto count = [](std::uint64_t v) { return std::to_string(v); };

  line("step1 seconds", support::format_duration(stats.step1_seconds));
  line("step2 seconds", support::format_duration(stats.step2_seconds));
  line("total seconds", support::format_duration(stats.total_seconds));
  line("reachable states", support::format_state_count(stats.reachable_states));
  line("invariant states", support::format_state_count(stats.invariant_states));
  line("fault-span states", support::format_state_count(stats.span_states));
  line("outer iterations", count(stats.outer_iterations));
  line("add-masking rounds", count(stats.addmasking_rounds));
  line("recovery layers", count(stats.recovery_layers));
  line("deadlock rounds", count(stats.deadlock_rounds));
  line("deadlock states banned",
       support::format_state_count(stats.deadlock_states_banned));
  line("ban relation nodes", count(stats.banned_trans_nodes));

  const bdd::ManagerStats& bdd = stats.bdd;
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.1f%%",
                bdd.cache_lookups == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(bdd.cache_hits) /
                          static_cast<double>(bdd.cache_lookups));
  line("bdd cache lookups", count(bdd.cache_lookups));
  line("bdd cache hit rate", rate);
  line("bdd unique hits", count(bdd.unique_hits));
  line("bdd created nodes", count(bdd.created_nodes));
  line("bdd gc runs", count(bdd.gc_runs));
  line("bdd gc reclaimed", count(bdd.gc_reclaimed));
  line("bdd live nodes", count(bdd.live_nodes));
  line("bdd peak nodes", count(bdd.peak_nodes));
  return lines;
}

}  // namespace lr::repair
