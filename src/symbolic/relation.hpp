#pragma once

// First-class partitioned transition relations with a static
// early-quantification schedule.
//
// A TransitionRelation makes the partition explicit: it owns a disjunctive
// list of parts, one BDD each, plus per-part "can-quantify-now" cubes
// derived from the parts' support sets. An image over a part only mentions
// the state bits the part actually reads/writes, so the bits *outside* its
// support can be quantified out of the operand set before the product —
// the standard early-quantification optimization for partitioned
// relations.
//
// Soundness of the schedule: for a part R with support S,
//   ∃cur. (R ∧ from) = ∃(cur∩S). (R ∧ ∃(cur\S). from)
// because R is independent of cur\S. The supports are computed from the
// *compiled* BDDs (bdd::Manager::support), not from parsed declarations,
// so the schedule stays exact for algorithm-built parts (e.g. a process
// delta minus a banned-transition set): the cubes never over-approximate.
//
// This is the engine's one partitioned representation: a list of
// per-process BDDs becomes one with partitioned(). The flat `bdd::Bdd`
// overloads of Space's relational operations stay as the reference the
// scheduled path is tested against (they compute the same canonical sets).

#include <cstddef>
#include <span>
#include <vector>

#include "bdd/bdd.hpp"
#include "symbolic/space.hpp"

namespace lr::sym {

/// One disjunctive part: its BDD plus its early-quantification cubes.
/// `local_*` cubes cover the state bits inside the part's support
/// (quantified during the product), `absent_*` cubes the bits outside it
/// (quantified out of the operand before the product).
struct RelationPart {
  bdd::Bdd relation;
  bdd::Bdd local_cur_cube;
  bdd::Bdd absent_cur_cube;
  bdd::Bdd local_next_cube;
  bdd::Bdd absent_next_cube;
  std::size_t support_bits = 0;  ///< |support| over cur+next bits
};

/// Partition-shape summary (metrics, journal header, --stats report).
struct RelationShape {
  std::size_t parts = 0;
  std::size_t min_support_bits = 0;
  std::size_t max_support_bits = 0;
  double avg_support_bits = 0.0;
  /// Sum over parts of the bits *outside* the part's support — the bits
  /// the schedule quantifies before the product. 0 means partitioning
  /// cannot help (every part touches every bit).
  std::size_t schedulable_bits = 0;
  std::size_t total_bits = 0;  ///< 2 * bits_per_state
};

/// A transition relation as an explicit disjunctive partition. See the
/// file comment for the schedule.
class TransitionRelation {
 public:
  /// An empty relation to grow with add_part().
  explicit TransitionRelation(Space& space) : space_(&space) {}

  /// One part per entry of `parts`.
  [[nodiscard]] static TransitionRelation partitioned(
      Space& space, std::span<const bdd::Bdd> parts);

  /// Appends one part; its quantification cubes come from its support.
  void add_part(const bdd::Bdd& part);

  [[nodiscard]] const std::vector<RelationPart>& parts() const noexcept {
    return parts_;
  }
  [[nodiscard]] std::size_t part_count() const noexcept {
    return parts_.size();
  }
  [[nodiscard]] Space& space() const noexcept { return *space_; }

  /// Partition-shape summary.
  [[nodiscard]] RelationShape shape() const;

 private:
  Space* space_;
  std::vector<RelationPart> parts_;
};

}  // namespace lr::sym
