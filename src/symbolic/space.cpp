#include "symbolic/space.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "bdd/witness.hpp"
#include "support/trace.hpp"
#include "symbolic/relation.hpp"

namespace lr::sym {

namespace {

std::uint32_t bits_for_domain(std::uint32_t domain) {
  if (domain < 2) return 1;
  std::uint32_t bits = 0;
  std::uint32_t capacity = 1;
  while (capacity < domain) {
    capacity <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

Space::Space(bdd::Manager::Options options) : mgr_(options) {}

VarId Space::add_variable(std::string name, std::uint32_t domain) {
  if (frozen_) {
    throw std::logic_error(
        "Space::add_variable: space is frozen (a whole-space structure was "
        "already queried)");
  }
  if (domain < 1) {
    throw std::invalid_argument("Space::add_variable: domain must be >= 1");
  }
  VariableInfo info;
  info.name = std::move(name);
  info.domain = domain;
  info.bits = bits_for_domain(domain);
  info.cur_bits.reserve(info.bits);
  info.next_bits.reserve(info.bits);
  for (std::uint32_t b = 0; b < info.bits; ++b) {
    // Interleave current and next copies of each bit.
    info.cur_bits.push_back(mgr_.new_var());
    info.next_bits.push_back(mgr_.new_var());
  }
  bits_per_state_ += info.bits;
  vars_.push_back(std::move(info));
  return static_cast<VarId>(vars_.size() - 1);
}

std::optional<VarId> Space::find(const std::string& name) const {
  for (VarId v = 0; v < vars_.size(); ++v) {
    if (vars_[v].name == name) return v;
  }
  return std::nullopt;
}

double Space::state_space_size() const {
  double size = 1.0;
  for (const auto& v : vars_) size *= static_cast<double>(v.domain);
  return size;
}

void Space::freeze() {
  if (frozen_) return;
  frozen_ = true;
  // Cubes over each copy.
  std::vector<bdd::VarIndex> cur;
  std::vector<bdd::VarIndex> next;
  for (const auto& v : vars_) {
    cur.insert(cur.end(), v.cur_bits.begin(), v.cur_bits.end());
    next.insert(next.end(), v.next_bits.begin(), v.next_bits.end());
  }
  cube_cur_ = mgr_.make_cube(cur);
  cube_next_ = mgr_.make_cube(next);
  // The swap permutation (an involution thanks to interleaving).
  std::vector<bdd::VarIndex> perm(mgr_.var_count());
  for (bdd::VarIndex i = 0; i < perm.size(); ++i) perm[i] = i;
  for (const auto& v : vars_) {
    for (std::uint32_t b = 0; b < v.bits; ++b) {
      perm[v.cur_bits[b]] = v.next_bits[b];
      perm[v.next_bits[b]] = v.cur_bits[b];
    }
  }
  swap_perm_ = mgr_.register_permutation(perm);
  // Domain-validity constraints and the identity relation, conjoined from
  // the deepest variable up like unchanged(vs).
  std::vector<VarId> all(vars_.size());
  std::iota(all.begin(), all.end(), VarId{0});
  valid_cur_ = mgr_.bdd_true();
  valid_next_ = mgr_.bdd_true();
  for (const VarId v : deepest_first(all)) {
    const std::uint32_t domain = vars_[v].domain;
    if ((1u << vars_[v].bits) != domain) {
      valid_cur_ = value_lt(v, domain, Version::kCurrent) & valid_cur_;
      valid_next_ = value_lt(v, domain, Version::kNext) & valid_next_;
    }
  }
  valid_pair_ = valid_cur_ & valid_next_;
  identity_ = unchanged(all);
}

std::vector<VarId> Space::deepest_first(std::span<const VarId> vs) const {
  std::vector<VarId> sorted(vs.begin(), vs.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return sorted;
}

bdd::Bdd Space::value_eq(VarId v, std::uint32_t value, Version ver) {
  const VariableInfo& info = vars_.at(v);
  if (value >= info.domain) {
    throw std::invalid_argument("Space::value_eq: value " +
                                std::to_string(value) + " outside domain of " +
                                info.name);
  }
  const auto& bits = bits_of(v, ver);
  bdd::Bdd result = mgr_.bdd_true();
  for (std::uint32_t b = 0; b < info.bits; ++b) {
    const bool bit = ((value >> b) & 1u) != 0;
    result &= bit ? mgr_.bdd_var(bits[b]) : mgr_.bdd_nvar(bits[b]);
  }
  return result;
}

bdd::Bdd Space::value_lt(VarId v, std::uint32_t value, Version ver) {
  const VariableInfo& info = vars_.at(v);
  const auto& bits = bits_of(v, ver);
  if (value >= (1u << info.bits)) return mgr_.bdd_true();
  // Compare MSB-down: v < value iff some prefix matches and the next
  // constant bit is 1 while the variable bit is 0.
  bdd::Bdd result = mgr_.bdd_false();
  bdd::Bdd prefix_eq = mgr_.bdd_true();
  for (std::int32_t b = static_cast<std::int32_t>(info.bits) - 1; b >= 0;
       --b) {
    const bool cbit = ((value >> b) & 1u) != 0;
    const bdd::Bdd bit = mgr_.bdd_var(bits[b]);
    if (cbit) {
      result |= prefix_eq & ~bit;
      prefix_eq &= bit;
    } else {
      prefix_eq &= ~bit;
    }
  }
  return result;
}

bdd::Bdd Space::vars_eq(VarId a, Version va, VarId b, Version vb) {
  const VariableInfo& ia = vars_.at(a);
  const VariableInfo& ib = vars_.at(b);
  const auto& bits_a = bits_of(a, va);
  const auto& bits_b = bits_of(b, vb);
  const std::uint32_t common = std::min(ia.bits, ib.bits);
  bdd::Bdd result = mgr_.bdd_true();
  for (std::uint32_t i = 0; i < common; ++i) {
    result &= mgr_.bdd_var(bits_a[i]).iff(mgr_.bdd_var(bits_b[i]));
  }
  // The wider variable's extra bits must be zero for the values to match.
  for (std::uint32_t i = common; i < ia.bits; ++i) {
    result &= mgr_.bdd_nvar(bits_a[i]);
  }
  for (std::uint32_t i = common; i < ib.bits; ++i) {
    result &= mgr_.bdd_nvar(bits_b[i]);
  }
  return result;
}

bdd::Bdd Space::unchanged(VarId v) {
  return vars_eq(v, Version::kCurrent, v, Version::kNext);
}

bdd::Bdd Space::unchanged(std::span<const VarId> vs) {
  // Deepest first, each new conjunct on the left: every AND then walks the
  // small conjunct above the accumulated frame instead of re-walking the
  // growing frame once per variable.
  bdd::Bdd result = mgr_.bdd_true();
  for (const VarId v : deepest_first(vs)) result = unchanged(v) & result;
  return result;
}

bdd::Bdd Space::identity() {
  freeze();
  return identity_;
}

bdd::Bdd Space::valid(Version ver) {
  freeze();
  return ver == Version::kCurrent ? valid_cur_ : valid_next_;
}

bdd::Bdd Space::valid_pair() {
  freeze();
  return valid_pair_;
}

bdd::Bdd Space::cube(Version ver) {
  freeze();
  return ver == Version::kCurrent ? cube_cur_ : cube_next_;
}

bdd::Bdd Space::cube_of(std::span<const VarId> vs, Version ver) {
  std::vector<bdd::VarIndex> bits;
  for (const VarId v : vs) {
    const auto& src = bits_of(v, ver);
    bits.insert(bits.end(), src.begin(), src.end());
  }
  return mgr_.make_cube(bits);
}

bdd::Bdd Space::cube_pair_of(std::span<const VarId> vs) {
  std::vector<bdd::VarIndex> bits;
  for (const VarId v : vs) {
    const auto& cur = vars_.at(v).cur_bits;
    const auto& next = vars_.at(v).next_bits;
    bits.insert(bits.end(), cur.begin(), cur.end());
    bits.insert(bits.end(), next.begin(), next.end());
  }
  return mgr_.make_cube(bits);
}

bdd::Bdd Space::prime(const bdd::Bdd& state) {
  freeze();
  return mgr_.permute(state, *swap_perm_);
}

bdd::Bdd Space::unprime(const bdd::Bdd& state) {
  freeze();
  return mgr_.permute(state, *swap_perm_);
}

bdd::Bdd Space::image(const bdd::Bdd& rel, const bdd::Bdd& from) {
  freeze();
  return unprime(mgr_.and_exists(rel, from, cube_cur_));
}

bdd::Bdd Space::preimage(const bdd::Bdd& rel, const bdd::Bdd& to) {
  freeze();
  return mgr_.and_exists(rel, prime(to), cube_next_);
}

bdd::Bdd Space::image_part(const RelationPart& part, const bdd::Bdd& from) {
  freeze();
  // Early quantification: the part cannot see the bits outside its
  // support, so they leave the operand before the product.
  const bdd::Bdd operand = part.absent_cur_cube.is_true()
                               ? from
                               : mgr_.exists(from, part.absent_cur_cube);
  return unprime(mgr_.and_exists(part.relation, operand, part.local_cur_cube));
}

bdd::Bdd Space::preimage_part(const RelationPart& part,
                              const bdd::Bdd& to_primed) {
  freeze();
  const bdd::Bdd operand = part.absent_next_cube.is_true()
                               ? to_primed
                               : mgr_.exists(to_primed, part.absent_next_cube);
  return mgr_.and_exists(part.relation, operand, part.local_next_cube);
}

bdd::Bdd Space::image(const TransitionRelation& rel, const bdd::Bdd& from) {
  freeze();
  bdd::Bdd result = mgr_.bdd_false();
  for (const RelationPart& part : rel.parts()) {
    result |= image_part(part, from);
  }
  return result;
}

bdd::Bdd Space::preimage(const TransitionRelation& rel, const bdd::Bdd& to) {
  freeze();
  const bdd::Bdd to_primed = prime(to);
  bdd::Bdd result = mgr_.bdd_false();
  for (const RelationPart& part : rel.parts()) {
    result |= preimage_part(part, to_primed);
  }
  return result;
}

bdd::Bdd Space::forward_reachable(const bdd::Bdd& rel, const bdd::Bdd& from) {
  LR_TRACE_SPAN_NAMED(span, "space.forward_reachable");
  std::uint64_t iterations = 0;
  bdd::Bdd reached = from;
  bdd::Bdd frontier = from;
  while (!frontier.is_false()) {
    frontier = image(rel, frontier).minus(reached);
    reached |= frontier;
    ++iterations;
  }
  if (support::trace::enabled()) {
    span.attr("iterations", iterations);
    span.attr("result_nodes",
              static_cast<std::uint64_t>(reached.node_count()));
  }
  return reached;
}

bdd::Bdd Space::forward_reachable(const TransitionRelation& rel,
                                  const bdd::Bdd& from) {
  LR_TRACE_SPAN_NAMED(span, "space.forward_reachable_partitioned");
  freeze();
  std::uint64_t images = 0;
  bdd::Bdd reached = from;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const RelationPart& part : rel.parts()) {
      // Chaotic iteration: saturate this part before moving to the next.
      while (true) {
        const bdd::Bdd fresh = image_part(part, reached).minus(reached);
        ++images;
        if (fresh.is_false()) break;
        reached |= fresh;
        changed = true;
      }
    }
  }
  if (support::trace::enabled()) {
    span.attr("partitions", static_cast<std::uint64_t>(rel.part_count()));
    span.attr("image_steps", images);
    span.attr("result_nodes",
              static_cast<std::uint64_t>(reached.node_count()));
  }
  return reached;
}

bdd::Bdd Space::backward_reachable(const bdd::Bdd& rel, const bdd::Bdd& to) {
  LR_TRACE_SPAN_NAMED(span, "space.backward_reachable");
  std::uint64_t iterations = 0;
  bdd::Bdd reached = to;
  bdd::Bdd frontier = to;
  while (!frontier.is_false()) {
    frontier = preimage(rel, frontier).minus(reached);
    reached |= frontier;
    ++iterations;
  }
  if (support::trace::enabled()) {
    span.attr("iterations", iterations);
    span.attr("result_nodes",
              static_cast<std::uint64_t>(reached.node_count()));
  }
  return reached;
}

bdd::Bdd Space::has_successor_in(const bdd::Bdd& rel, const bdd::Bdd& set) {
  freeze();
  // The primed operand stays referenced through the conjunction, so a GC
  // that fires inside it keeps that node set (νZ step counts depend on it).
  return set & mgr_.and_exists(rel, prime(set), cube_next_);
}

bdd::Bdd Space::has_successor_in(const TransitionRelation& rel,
                                 const bdd::Bdd& set) {
  return set & preimage(rel, set);
}

namespace {

template <class Rel>
bdd::Bdd live_core_over(Space& space, const Rel& rel, bdd::Bdd states,
                        std::uint64_t* iterations,
                        std::vector<bdd::Bdd>* peeled) {
  while (true) {
    if (iterations != nullptr) ++*iterations;
    bdd::Bdd shrunk = space.has_successor_in(rel, states);
    if (shrunk == states) return states;
    if (peeled != nullptr) peeled->push_back(states.minus(shrunk));
    states = std::move(shrunk);
  }
}

}  // namespace

bdd::Bdd Space::live_core(const bdd::Bdd& rel, bdd::Bdd states,
                          std::uint64_t* iterations,
                          std::vector<bdd::Bdd>* peeled) {
  return live_core_over(*this, rel, std::move(states), iterations, peeled);
}

bdd::Bdd Space::live_core(const TransitionRelation& rel, bdd::Bdd states,
                          std::uint64_t* iterations,
                          std::vector<bdd::Bdd>* peeled) {
  return live_core_over(*this, rel, std::move(states), iterations, peeled);
}

double Space::count_states(const bdd::Bdd& set) {
  freeze();
  // Conjoining validity keeps invalid encodings of non-power-of-two domains
  // out of the count and guarantees the support is within current bits.
  bdd::Bdd counted = set & valid_cur_;
  return mgr_.sat_count(counted, bits_per_state_);
}

double Space::count_transitions(const bdd::Bdd& rel) {
  freeze();
  bdd::Bdd counted = rel & valid_pair_;
  return mgr_.sat_count(counted, 2 * bits_per_state_);
}

void Space::foreach_state(
    const bdd::Bdd& set,
    const std::function<void(std::span<const std::uint32_t>)>& fn) {
  freeze();
  const bdd::Bdd constrained = set & valid_cur_;
  std::vector<std::uint32_t> values(vars_.size());
  // foreach_minterm presents the cube's variables in variable order, which
  // is add_variable's: each variable's bits in turn, least significant
  // first.
  mgr_.foreach_minterm(constrained, cube_cur_,
                       [&](std::span<const bool> bits) {
                         std::size_t i = 0;
                         for (VarId v = 0; v < vars_.size(); ++v) {
                           values[v] = 0;
                           for (std::uint32_t b = 0; b < vars_[v].bits; ++b) {
                             if (bits[i++]) values[v] |= 1u << b;
                           }
                         }
                         fn(values);
                       });
}

void Space::foreach_transition(
    const bdd::Bdd& rel,
    const std::function<void(std::span<const std::uint32_t>,
                             std::span<const std::uint32_t>)>& fn) {
  freeze();
  const bdd::Bdd constrained = rel & valid_pair_;
  const bdd::Bdd both = cube_cur_ & cube_next_;
  std::vector<std::uint32_t> from(vars_.size());
  std::vector<std::uint32_t> to(vars_.size());
  // Variable order again (see foreach_state), with each bit's current
  // copy just before its next copy.
  mgr_.foreach_minterm(
      constrained, both, [&](std::span<const bool> bits) {
        std::size_t i = 0;
        for (VarId v = 0; v < vars_.size(); ++v) {
          from[v] = 0;
          to[v] = 0;
          for (std::uint32_t b = 0; b < vars_[v].bits; ++b) {
            if (bits[i++]) from[v] |= 1u << b;
            if (bits[i++]) to[v] |= 1u << b;
          }
        }
        fn(from, to);
      });
}

bdd::Bdd Space::state(std::span<const std::uint32_t> values, Version ver) {
  if (values.size() != vars_.size()) {
    throw std::invalid_argument("Space::state: one value per variable");
  }
  bdd::Bdd result = mgr_.bdd_true();
  for (VarId v = 0; v < vars_.size(); ++v) {
    result &= value_eq(v, values[v], ver);
  }
  return result;
}

bdd::Bdd Space::transition(std::span<const std::uint32_t> from,
                           std::span<const std::uint32_t> to) {
  return state(from, Version::kCurrent) & state(to, Version::kNext);
}

std::string Space::state_to_string(
    std::span<const std::uint32_t> values) const {
  std::string out;
  for (VarId v = 0; v < vars_.size() && v < values.size(); ++v) {
    if (v > 0) out += ", ";
    out += vars_[v].name + "=" + std::to_string(values[v]);
  }
  return out;
}

std::optional<std::vector<std::uint32_t>> Space::witness_state(
    const bdd::Bdd& set) {
  freeze();
  const std::vector<signed char> bits =
      bdd::sat_one(mgr_, set & valid_cur_);
  if (bits.empty()) return std::nullopt;
  std::vector<std::uint32_t> values(vars_.size(), 0u);
  for (VarId v = 0; v < vars_.size(); ++v) {
    for (std::uint32_t b = 0; b < vars_[v].bits; ++b) {
      // Don't-care bits stay 0: any value on the chosen path satisfies the
      // predicate, and 0 keeps the value inside every domain.
      if (bits[vars_[v].cur_bits[b]] == 1) values[v] |= 1u << b;
    }
  }
  return values;
}

std::optional<std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>>
Space::witness_transition(const bdd::Bdd& rel) {
  freeze();
  const std::vector<signed char> bits =
      bdd::sat_one(mgr_, rel & valid_pair_);
  if (bits.empty()) return std::nullopt;
  std::vector<std::uint32_t> from(vars_.size(), 0u);
  std::vector<std::uint32_t> to(vars_.size(), 0u);
  for (VarId v = 0; v < vars_.size(); ++v) {
    for (std::uint32_t b = 0; b < vars_[v].bits; ++b) {
      if (bits[vars_[v].cur_bits[b]] == 1) from[v] |= 1u << b;
      if (bits[vars_[v].next_bits[b]] == 1) to[v] |= 1u << b;
    }
  }
  return std::make_pair(std::move(from), std::move(to));
}

}  // namespace lr::sym
