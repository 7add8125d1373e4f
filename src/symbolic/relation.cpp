#include "symbolic/relation.hpp"

#include <algorithm>

namespace lr::sym {

namespace {

/// Fills a part's quantification cubes and support size from its support:
/// bits in the support are quantified during the product (local cubes),
/// bits outside it are quantified out of the operand first (absent cubes).
void schedule_part(Space& space, RelationPart& part) {
  bdd::Manager& mgr = space.manager();
  std::vector<bool> mask(mgr.var_count(), false);
  for (const bdd::VarIndex v : mgr.support(part.relation)) mask[v] = true;
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

void TransitionRelation::add_part(const bdd::Bdd& part) {
  RelationPart scheduled;
  scheduled.relation = part;
  schedule_part(*space_, scheduled);
  parts_.push_back(std::move(scheduled));
}

RelationShape TransitionRelation::shape() const {
  RelationShape shape;
  shape.parts = parts_.size();
  shape.total_bits = 2 * space_->bits_per_state();
  if (parts_.empty()) return shape;
  shape.min_support_bits = shape.total_bits;
  double support_sum = 0.0;
  for (const RelationPart& part : parts_) {
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
