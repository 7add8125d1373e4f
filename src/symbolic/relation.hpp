#pragma once

// First-class partitioned transition relations with a static
// early-quantification schedule.
//
// The repair algorithms historically passed transition relations around as
// ad-hoc `bdd::Bdd` values or `std::span<const bdd::Bdd>` partitions. A
// TransitionRelation makes the partition explicit: it owns a disjunctive
// list of parts, each part a (small) conjunction of factors that is never
// materialized when a combined and-exists can consume the factors
// directly, plus per-part "can-quantify-now" cubes derived from the parts'
// support sets. An image over a part only mentions the state bits the part
// actually reads/writes, so the bits *outside* its support can be
// quantified out of the operand set before the product — the standard
// early-quantification optimization for partitioned relations.
//
// Soundness of the schedule: for a part R with support S,
//   ∃cur. (R ∧ from) = ∃(cur∩S). (R ∧ ∃(cur\S). from)
// because R is independent of cur\S. The supports are computed from the
// *compiled* BDDs (bdd::Manager::support), not from parsed declarations,
// so the schedule stays exact for algorithm-built parts (e.g. a process
// delta minus a banned-transition set). The parsed structure
// (order_heur's support analysis) guides how the repair layer *groups*
// actions into parts; the cubes themselves never over-approximate.
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

/// One disjunctive part: a conjunction of factors plus its
/// early-quantification cubes. `local_*` cubes cover the state bits inside
/// the part's support (quantified during the product), `absent_*` cubes the
/// bits outside it (quantified out of the operand before the product).
struct RelationPart {
  std::vector<bdd::Bdd> conjuncts;
  bdd::Bdd local_cur_cube;
  bdd::Bdd absent_cur_cube;
  bdd::Bdd local_next_cube;
  bdd::Bdd absent_next_cube;
  std::size_t support_bits = 0;  ///< |support| over cur+next bits
};

/// Partition-shape summary (metrics, journal header, --stats report).
struct RelationShape {
  std::size_t parts = 0;
  std::size_t conjuncts = 0;
  std::size_t min_support_bits = 0;
  std::size_t max_support_bits = 0;
  double avg_support_bits = 0.0;
  /// Sum over parts of the bits *outside* the part's support — the bits
  /// the schedule quantifies before the product. 0 means partitioning
  /// cannot help (every part touches every bit).
  std::size_t schedulable_bits = 0;
  std::size_t total_bits = 0;  ///< 2 * bits_per_state
};

/// A transition relation as an explicit disjunctive partition of
/// conjunctive parts. See the file comment for the schedule.
class TransitionRelation {
 public:
  /// An empty relation to grow with add_part().
  explicit TransitionRelation(Space& space) : space_(&space) {}

  /// One part per entry of `parts`.
  [[nodiscard]] static TransitionRelation partitioned(
      Space& space, std::span<const bdd::Bdd> parts);

  /// Appends one part. The conjuncts stay separate; the part's
  /// quantification cubes come from the union of their supports.
  /// Multi-factor parts are how call sites avoid materializing products
  /// like `delta ∧ prime(invariant)`.
  void add_part(std::span<const bdd::Bdd> conjuncts);
  void add_part(const bdd::Bdd& a);
  void add_part(const bdd::Bdd& a, const bdd::Bdd& b);

  [[nodiscard]] const std::vector<RelationPart>& parts() const noexcept {
    return parts_;
  }
  [[nodiscard]] std::size_t part_count() const noexcept {
    return parts_.size();
  }
  [[nodiscard]] Space& space() const noexcept { return *space_; }

  /// One BDD per part (multi-factor parts conjoined on demand, cached).
  [[nodiscard]] std::span<const bdd::Bdd> flat_parts() const;

  /// The whole relation as one BDD (union of flat parts, cached). Call
  /// sites that genuinely need the monolithic product (e.g. transition
  /// subtraction against the full relation) use this; image/preimage never
  /// do.
  [[nodiscard]] const bdd::Bdd& flat() const;

  /// Partition-shape summary.
  [[nodiscard]] RelationShape shape() const;

 private:
  Space* space_;
  std::vector<RelationPart> parts_;
  mutable std::vector<bdd::Bdd> flat_parts_;
  mutable bdd::Bdd flat_;
};

}  // namespace lr::sym
