#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"

namespace lr::bdd::order {

/// Imposes a complete variable order on a manager: after the call,
/// var_at_level[L] == target[L] for every level L. Implemented as a
/// sequence of adjacent-level exchanges, so every existing Bdd handle keeps
/// its semantics; on an empty manager (the intended use: before any BDD is
/// built) each exchange is O(pool scan) with nothing to rewrite. `target`
/// must be a permutation of all variables; throws std::invalid_argument
/// otherwise. Returns the number of adjacent swaps performed.
std::size_t apply_order(Manager& mgr, std::span<const VarIndex> target);

/// Restores the creation order (variable v at level v). The .lr exporter
/// calls this before enumerating cubes so exported models are byte-identical
/// whatever static order preceded them.
std::size_t restore_creation_order(Manager& mgr);

/// Schema tag of the persisted order-profile JSON document.
inline constexpr std::string_view kProfileSchema = "lr.order-profile/1";

/// One level of a persisted order profile: which bit sits there (by its
/// canonical label, e.g. "x2.0" / "x2.0'") and how many live nodes the
/// level held when the profile was captured (the meminfo histogram — the
/// profile's quality evidence).
struct ProfileLevel {
  std::string label;
  std::size_t nodes = 0;
};

/// A persisted variable order plus the evidence it was captured with.
/// Saved by `repair_cli --order-out`, loaded by `--order=file:PATH`;
/// levels are stored top-first and keyed by *label*, so a profile survives
/// VarIndex renumbering as long as the model's variable names are stable.
struct OrderProfile {
  std::string model;            ///< program name the order was captured from
  std::string source;           ///< order mode that produced it (no paths)
  std::size_t live_nodes = 0;   ///< live nodes at capture time
  std::size_t peak_nodes = 0;   ///< manager high-water mark
  std::vector<ProfileLevel> levels;
};

/// Snapshots the manager's current order and per-level live-node histogram.
/// `labels` maps VarIndex to its canonical bit label (see
/// sym::order::bit_labels) and must cover every variable.
[[nodiscard]] OrderProfile capture_profile(const Manager& mgr,
                                           std::span<const std::string> labels,
                                           std::string model,
                                           std::string source);

/// Renders a profile as schema'd JSON (deterministic, newline-terminated).
[[nodiscard]] std::string profile_to_json(const OrderProfile& profile);

/// Parses a profile document; nullopt on syntax errors, a missing/foreign
/// schema tag, or structurally invalid levels.
[[nodiscard]] std::optional<OrderProfile> parse_profile(std::string_view text);

/// Reads and parses a profile file; nullopt when unreadable or invalid.
[[nodiscard]] std::optional<OrderProfile> load_profile(const std::string& path);

/// Atomically writes `profile` as JSON. False on I/O errors.
bool save_profile(const OrderProfile& profile, const std::string& path);

}  // namespace lr::bdd::order
