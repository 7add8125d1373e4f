#include "repair/manifest.hpp"

#include <cstddef>
#include <utility>

#include "support/fs.hpp"
#include "support/json.hpp"

namespace lr::repair {

namespace {

std::string get_string(const support::JsonValue& obj, std::string_view key) {
  const support::JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->string : std::string();
}

double get_number(const support::JsonValue& obj, std::string_view key,
                  double fallback) {
  const support::JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

bool get_bool(const support::JsonValue& obj, std::string_view key) {
  const support::JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == support::JsonValue::Kind::kBool &&
         v->boolean;
}

}  // namespace

std::optional<Manifest> Manifest::load(const std::string& path) {
  const std::optional<std::string> text = support::read_file(path);
  if (!text) return std::nullopt;
  const std::optional<support::JsonValue> doc = support::json_parse(*text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const support::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_number() ||
      schema->number != static_cast<double>(kSchemaVersion)) {
    return std::nullopt;
  }
  const support::JsonValue* entries = doc->find("entries");
  if (entries == nullptr || !entries->is_object()) return std::nullopt;

  Manifest manifest;
  for (const auto& [name, row] : entries->object) {
    if (!row.is_object()) return std::nullopt;
    ManifestEntry entry;
    entry.name = name;
    entry.input_hash = get_string(row, "input_hash");
    entry.options_fingerprint = get_string(row, "options");
    entry.status = get_string(row, "status");
    entry.algorithm = get_string(row, "algorithm");
    entry.export_path = get_string(row, "export");
    entry.failure_reason = get_string(row, "failure_reason");
    entry.attempts =
        static_cast<std::size_t>(get_number(row, "attempts", 0.0));
    entry.seconds = get_number(row, "seconds", 0.0);
    entry.model_states = get_number(row, "model_states", -1.0);
    entry.invariant_states = get_number(row, "invariant_states", -1.0);
    entry.span_states = get_number(row, "span_states", -1.0);
    entry.verified = get_bool(row, "verified");
    entry.verify_ok = get_bool(row, "verify_ok");
    manifest.entries_[entry.name] = std::move(entry);
  }
  return manifest;
}

const ManifestEntry* Manifest::find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

void Manifest::set(ManifestEntry entry) {
  entries_[entry.name] = std::move(entry);
}

bool Manifest::erase(const std::string& name) {
  return entries_.erase(name) > 0;
}

std::string Manifest::to_json() const {
  using support::json_number;
  using support::json_quote;
  std::string out = "{\n  \"schema\": ";
  out += std::to_string(kSchemaVersion);
  out += ",\n  \"entries\": {";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": {\n";
    out += "      \"input_hash\": " + json_quote(e.input_hash) + ",\n";
    out += "      \"options\": " + json_quote(e.options_fingerprint) + ",\n";
    out += "      \"status\": " + json_quote(e.status) + ",\n";
    out += "      \"algorithm\": " + json_quote(e.algorithm) + ",\n";
    out += "      \"export\": " + json_quote(e.export_path) + ",\n";
    out +=
        "      \"failure_reason\": " + json_quote(e.failure_reason) + ",\n";
    out += "      \"attempts\": " +
           std::to_string(static_cast<unsigned long long>(e.attempts)) + ",\n";
    out += "      \"seconds\": " + json_number(e.seconds) + ",\n";
    out += "      \"model_states\": " + json_number(e.model_states) + ",\n";
    out += "      \"invariant_states\": " + json_number(e.invariant_states) +
           ",\n";
    out += "      \"span_states\": " + json_number(e.span_states) + ",\n";
    out += std::string("      \"verified\": ") +
           (e.verified ? "true" : "false") + ",\n";
    out += std::string("      \"verify_ok\": ") +
           (e.verify_ok ? "true" : "false") + "\n";
    out += "    }";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

bool Manifest::save(const std::string& path) const {
  return support::write_file_atomic(path, to_json());
}

std::string options_fingerprint(const Options& options, bool cautious,
                                bool verify) {
  std::string out = cautious ? "cautious" : "lazy";
  switch (options.level) {
    case ToleranceLevel::kFailsafe: out += "|failsafe"; break;
    case ToleranceLevel::kNonmasking: out += "|nonmasking"; break;
    case ToleranceLevel::kMasking: out += "|masking"; break;
  }
  out += options.restrict_to_reachable ? "|heuristic=1" : "|heuristic=0";
  out += "|maxouter=" + std::to_string(options.max_outer_iterations);
  out += verify ? "|verify=1" : "|verify=0";
  return out;
}

}  // namespace lr::repair
