#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>

#include "repair/types.hpp"

namespace lr::repair {

/// One checkpoint row of a batch sweep: everything needed to (a) decide
/// whether the task can be skipped on resume and (b) reprint its stdout
/// block byte-identically without re-running it.
struct ManifestEntry {
  std::string name;                 ///< task name (model file stem)
  std::string input_hash;           ///< support::content_hash of the input
  std::string options_fingerprint;  ///< options_fingerprint() at run time
  /// "ok" | "failed" | "timeout". Only "ok" rows are resume candidates.
  std::string status;
  std::string algorithm;            ///< display label ("lazy", "cautious")
  std::string export_path;          ///< repaired-model export ("" if none)
  std::string failure_reason;       ///< non-empty for failed/timeout rows
  std::size_t attempts = 0;         ///< how many times the task ran
  double seconds = 0.0;             ///< wall clock of the recorded run
  double model_states = -1.0;
  double invariant_states = -1.0;
  double span_states = -1.0;
  bool verified = false;
  bool verify_ok = false;
};

/// The per-batch checkpoint manifest: a JSON document updated atomically
/// (write-temp-then-rename, see support::write_file_atomic) after every
/// task completes, so a sweep killed at any instant leaves either the
/// previous or the new complete manifest on disk — never a torn one.
///
/// Schema (all fields always present, entries sorted by name):
/// {
///   "schema": 1,
///   "entries": {
///     "<name>": {
///       "input_hash": "fnv1a:...", "options": "<fingerprint>",
///       "status": "ok", "algorithm": "lazy",
///       "export": "dir/repaired/<name>.lr", "failure_reason": "",
///       "attempts": 1, "seconds": 0.12, "model_states": 48,
///       "invariant_states": 14, "span_states": 16,
///       "verified": true, "verify_ok": true
///     }, ...
///   }
/// }
class Manifest {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Parses a manifest file. nullopt when the file is missing, unreadable,
  /// not valid JSON, or of a different schema version — resume treats all
  /// of those as "cold start", never as an error.
  [[nodiscard]] static std::optional<Manifest> load(const std::string& path);

  [[nodiscard]] const ManifestEntry* find(const std::string& name) const;
  void set(ManifestEntry entry);
  /// Removes an entry; false when absent. (Tests use this to simulate a
  /// sweep killed after N rows.)
  bool erase(const std::string& name);
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] std::string to_json() const;
  /// Serializes and writes atomically; false on IO failure.
  [[nodiscard]] bool save(const std::string& path) const;

 private:
  std::map<std::string, ManifestEntry> entries_;  ///< keyed by entry name
};

/// Canonical fingerprint of everything that changes a repair's outcome:
/// algorithm, tolerance level, heuristic toggle, static order, iteration
/// bound and whether the verifier ran. A manifest row whose fingerprint
/// differs from the current invocation is stale and its
/// task re-runs. Timeout/retry/jobs settings are deliberately excluded:
/// they bound *when* a result is produced, not *what* it is.
[[nodiscard]] std::string options_fingerprint(const Options& options,
                                              bool cautious, bool verify);

}  // namespace lr::repair
