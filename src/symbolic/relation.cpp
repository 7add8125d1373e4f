#include "symbolic/relation.hpp"

#include <algorithm>
#include <stdexcept>

namespace lr::sym {

namespace {

/// Union of the conjuncts' supports, as a per-VarIndex membership mask.
std::vector<bool> support_mask(Space& space,
                               std::span<const bdd::Bdd> conjuncts) {
  bdd::Manager& mgr = space.manager();
  std::vector<bool> mask(mgr.var_count(), false);
  for (const bdd::Bdd& conjunct : conjuncts) {
    for (const bdd::VarIndex v : mgr.support(conjunct)) mask[v] = true;
  }
  return mask;
}

/// Fills a part's quantification cubes and support size from its support
/// mask: bits in the support are quantified during the combined product
/// (local cubes), bits outside it are quantified out of the operand first
/// (absent cubes).
void schedule_part(Space& space, RelationPart& part) {
  const std::vector<bool> mask = support_mask(space, part.conjuncts);
  std::vector<bdd::VarIndex> local_cur;
  std::vector<bdd::VarIndex> absent_cur;
  std::vector<bdd::VarIndex> local_next;
  std::vector<bdd::VarIndex> absent_next;
  std::size_t support_bits = 0;
  for (VarId v = 0; v < space.variable_count(); ++v) {
    const VariableInfo& info = space.info(v);
    for (const bdd::VarIndex bit : info.cur_bits) {
      (mask[bit] ? local_cur : absent_cur).push_back(bit);
    }
    for (const bdd::VarIndex bit : info.next_bits) {
      (mask[bit] ? local_next : absent_next).push_back(bit);
    }
  }
  for (const bool in : mask) {
    if (in) ++support_bits;
  }
  bdd::Manager& mgr = space.manager();
  part.local_cur_cube = mgr.make_cube(local_cur);
  part.absent_cur_cube = mgr.make_cube(absent_cur);
  part.local_next_cube = mgr.make_cube(local_next);
  part.absent_next_cube = mgr.make_cube(absent_next);
  part.support_bits = support_bits;
}

}  // namespace

TransitionRelation TransitionRelation::partitioned(
    Space& space, std::span<const bdd::Bdd> parts) {
  TransitionRelation relation(space);
  for (const bdd::Bdd& part : parts) relation.add_part(part);
  return relation;
}

void TransitionRelation::add_part(std::span<const bdd::Bdd> conjuncts) {
  if (conjuncts.empty()) {
    throw std::invalid_argument(
        "TransitionRelation::add_part: a part needs at least one conjunct");
  }
  RelationPart part;
  part.conjuncts.assign(conjuncts.begin(), conjuncts.end());
  schedule_part(*space_, part);
  parts_.push_back(std::move(part));
  // The cached flattenings are prefixes of the part list; invalidate only
  // the union (append keeps per-part entries valid).
  flat_parts_.clear();
  flat_ = bdd::Bdd();
}

void TransitionRelation::add_part(const bdd::Bdd& a) {
  add_part(std::span<const bdd::Bdd>(&a, 1));
}

void TransitionRelation::add_part(const bdd::Bdd& a, const bdd::Bdd& b) {
  const bdd::Bdd conjuncts[2] = {a, b};
  add_part(std::span<const bdd::Bdd>(conjuncts, 2));
}

std::span<const bdd::Bdd> TransitionRelation::flat_parts() const {
  if (flat_parts_.size() != parts_.size()) {
    flat_parts_.clear();
    flat_parts_.reserve(parts_.size());
    for (const RelationPart& part : parts_) {
      bdd::Bdd flat = part.conjuncts[0];
      for (std::size_t i = 1; i < part.conjuncts.size(); ++i) {
        flat &= part.conjuncts[i];
      }
      flat_parts_.push_back(std::move(flat));
    }
  }
  return flat_parts_;
}

const bdd::Bdd& TransitionRelation::flat() const {
  if (!flat_.valid()) {
    bdd::Bdd result = space_->manager().bdd_false();
    for (const bdd::Bdd& part : flat_parts()) result |= part;
    flat_ = std::move(result);
  }
  return flat_;
}

RelationShape TransitionRelation::shape() const {
  RelationShape shape;
  shape.parts = parts_.size();
  shape.total_bits = 2 * space_->bits_per_state();
  if (parts_.empty()) return shape;
  shape.min_support_bits = shape.total_bits;
  double support_sum = 0.0;
  for (const RelationPart& part : parts_) {
    shape.conjuncts += part.conjuncts.size();
    const std::size_t support = part.support_bits;
    shape.min_support_bits = std::min(shape.min_support_bits, support);
    shape.max_support_bits = std::max(shape.max_support_bits, support);
    support_sum += static_cast<double>(support);
    shape.schedulable_bits += shape.total_bits - support;
  }
  shape.avg_support_bits = support_sum / static_cast<double>(parts_.size());
  return shape;
}

}  // namespace lr::sym
