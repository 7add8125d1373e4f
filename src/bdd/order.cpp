#include "bdd/order.hpp"

#include <stdexcept>

#include "support/fs.hpp"
#include "support/json.hpp"

namespace lr::bdd::order {

std::size_t apply_order(Manager& mgr, std::span<const VarIndex> target) {
  const std::uint32_t n = mgr.var_count();
  if (target.size() != n) {
    throw std::invalid_argument("apply_order: order must list every variable");
  }
  std::vector<bool> seen(n, false);
  for (const VarIndex v : target) {
    if (v >= n || seen[v]) {
      throw std::invalid_argument("apply_order: order is not a permutation");
    }
    seen[v] = true;
  }

  // Selection sort by adjacent exchanges: place target[L] at level L by
  // bubbling it up from wherever it currently sits. Everything above L is
  // already in place, so the journey never disturbs placed levels.
  std::size_t swaps = 0;
  for (std::uint32_t level = 0; level < n; ++level) {
    const VarIndex v = target[level];
    for (std::uint32_t at = mgr.level_of(v); at > level; --at) {
      mgr.swap_adjacent_levels(at - 1);
      ++swaps;
    }
  }
  return swaps;
}

std::size_t restore_creation_order(Manager& mgr) {
  std::vector<VarIndex> identity(mgr.var_count());
  for (VarIndex v = 0; v < mgr.var_count(); ++v) identity[v] = v;
  return apply_order(mgr, identity);
}

OrderProfile capture_profile(const Manager& mgr,
                             std::span<const std::string> labels,
                             std::string model, std::string source) {
  OrderProfile profile;
  profile.model = std::move(model);
  profile.source = std::move(source);
  const ManagerStats& stats = mgr.stats();
  profile.live_nodes = stats.live_nodes;
  profile.peak_nodes = stats.peak_nodes;
  const std::vector<std::size_t> histogram = mgr.level_histogram();
  profile.levels.reserve(mgr.var_count());
  for (std::uint32_t level = 0; level < mgr.var_count(); ++level) {
    const VarIndex v = mgr.var_at_level(level);
    ProfileLevel entry;
    entry.label = v < labels.size() ? labels[v] : "v" + std::to_string(v);
    entry.nodes = level < histogram.size() ? histogram[level] : 0;
    profile.levels.push_back(std::move(entry));
  }
  return profile;
}

std::string profile_to_json(const OrderProfile& profile) {
  using support::json_quote;
  std::string out = "{\n";
  out += "  \"schema\": " + json_quote(kProfileSchema) + ",\n";
  out += "  \"model\": " + json_quote(profile.model) + ",\n";
  out += "  \"source\": " + json_quote(profile.source) + ",\n";
  out += "  \"live_nodes\": " + std::to_string(profile.live_nodes) + ",\n";
  out += "  \"peak_nodes\": " + std::to_string(profile.peak_nodes) + ",\n";
  out += "  \"levels\": [";
  for (std::size_t i = 0; i < profile.levels.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"label\": " + json_quote(profile.levels[i].label) +
           ", \"nodes\": " + std::to_string(profile.levels[i].nodes) + "}";
  }
  out += profile.levels.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::optional<OrderProfile> parse_profile(std::string_view text) {
  const std::optional<support::JsonValue> doc = support::json_parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const support::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kProfileSchema) {
    return std::nullopt;
  }
  OrderProfile profile;
  if (const support::JsonValue* v = doc->find("model");
      v != nullptr && v->is_string()) {
    profile.model = v->string;
  }
  if (const support::JsonValue* v = doc->find("source");
      v != nullptr && v->is_string()) {
    profile.source = v->string;
  }
  if (const support::JsonValue* v = doc->find("live_nodes");
      v != nullptr && v->is_number()) {
    profile.live_nodes = static_cast<std::size_t>(v->number);
  }
  if (const support::JsonValue* v = doc->find("peak_nodes");
      v != nullptr && v->is_number()) {
    profile.peak_nodes = static_cast<std::size_t>(v->number);
  }
  const support::JsonValue* levels = doc->find("levels");
  if (levels == nullptr || !levels->is_array()) return std::nullopt;
  for (const support::JsonValue& entry : levels->array) {
    if (!entry.is_object()) return std::nullopt;
    const support::JsonValue* label = entry.find("label");
    if (label == nullptr || !label->is_string() || label->string.empty()) {
      return std::nullopt;
    }
    ProfileLevel level;
    level.label = label->string;
    if (const support::JsonValue* nodes = entry.find("nodes");
        nodes != nullptr && nodes->is_number()) {
      level.nodes = static_cast<std::size_t>(nodes->number);
    }
    profile.levels.push_back(std::move(level));
  }
  return profile;
}

std::optional<OrderProfile> load_profile(const std::string& path) {
  const std::optional<std::string> text = support::read_file(path);
  if (!text) return std::nullopt;
  return parse_profile(*text);
}

bool save_profile(const OrderProfile& profile, const std::string& path) {
  return support::write_file_atomic(path, profile_to_json(profile));
}

}  // namespace lr::bdd::order
