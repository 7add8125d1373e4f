#pragma once

// Intra-problem work sharding: one persistent worker pool whose threads
// each own a private bdd::Manager mirroring the main manager's variable
// order. The engine shards partitioned image/preimage computation (and any
// caller-supplied per-item work, e.g. realize's per-process group
// enumeration) across the workers and reduces the partial results back
// into the main manager in a fixed partition order.
//
// Determinism: BDDs are canonical, so a worker whose manager has the same
// variable *level order* as the main manager computes bit-identical node
// structures for the same functions — pick_minterm, leq, exists, all
// decide identically to the sequential path. The reduction therefore
// yields the exact BDD the sequential loop would, and worker-side
// accept/reject decisions match the sequential ones one-for-one.
//
// Concurrency protocol (see also bdd/transfer.hpp):
//   * main thread pins every main-manager root it hands to workers
//     (pinned handles keep GC from sweeping or recycling their node ids);
//   * between dispatch and wait_idle the main thread performs no
//     main-manager operation, so workers may traverse the main node pool
//     read-only via Manager::node_view;
//   * workers never touch main-manager handles (refcounts are not atomic)
//     — they receive raw NodeIds and import them into their own manager;
//   * results flow back after wait_idle, imported sequentially by the
//     main thread while the workers are quiescent.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/transfer.hpp"
#include "support/thread_pool.hpp"

namespace lr::sym {

class IntraEngine {
 public:
  /// One worker thread's private state. `mgr` mirrors the main manager's
  /// variable count and level order; `memo` caches main->worker imports
  /// (valid while the engine's pin set is intact).
  struct Worker {
    bdd::Manager mgr;
    bdd::ImportMemo memo;
    bdd::ImportMemo export_memo;
    /// Roots every function ever exported through `export_memo`: the memo's
    /// keys are worker node ids, which stay valid only while their nodes are
    /// externally referenced (the worker's GC could otherwise recycle them).
    std::vector<bdd::Bdd> export_roots;
    bdd::Bdd cube_cur;
    bdd::Bdd cube_next;
    bdd::PermId swap = 0;
    std::exception_ptr error;
  };

  /// Number of worker contexts (private managers). Fixed — NOT the thread
  /// count — so the work-to-context assignment, each context's op
  /// sequence, and therefore every profiler counter are identical no
  /// matter how many threads execute the contexts. That invariance is what
  /// makes a profiled run's flamegraph byte-identical across --par-intra
  /// values (and against a profiled sequential run, which drives the same
  /// engine with a one-thread pool).
  static constexpr std::size_t kContexts = 8;

  /// kContexts worker managers are created mirroring `main`'s variable
  /// order and executed by a pool of `jobs` >= 1 threads;
  /// `cur_bits`/`next_bits` are the state-copy bit lists and `swap_perm`
  /// the prime/unprime permutation vector of the owning Space.
  IntraEngine(bdd::Manager& main, std::size_t jobs,
              std::vector<bdd::VarIndex> cur_bits,
              std::vector<bdd::VarIndex> next_bits,
              std::vector<bdd::VarIndex> swap_perm);

  ~IntraEngine();

  IntraEngine(const IntraEngine&) = delete;
  IntraEngine& operator=(const IntraEngine&) = delete;

  /// Worker contexts (== kContexts). Work is strided over contexts, so
  /// shard loops use this, never jobs().
  [[nodiscard]] std::size_t contexts() const noexcept {
    return workers_.size();
  }

  /// Pool threads executing the contexts.
  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// Main thread only: keeps `f` (and thus every node reachable from it)
  /// alive and id-stable so workers may import it. Pins accumulate across
  /// calls and are released wholesale (with all worker memos) when the pin
  /// set grows past an internal bound.
  bdd::NodeId pin(const bdd::Bdd& f);

  /// Runs `fn(w, worker)` once per worker on the pool and joins. Worker
  /// exceptions are captured and rethrown here, lowest worker index first.
  /// When profiling is enabled, each task runs under the span that was
  /// current on the dispatching thread, and the worker managers' profiles
  /// are merged into the main manager's profiler after the join.
  void run(const std::function<void(std::size_t, Worker&)>& fn);

  /// Worker-thread side: imports a pinned main-manager node into worker
  /// `w`'s manager (memoized).
  bdd::Bdd import(std::size_t w, bdd::NodeId id);

  /// Main thread, workers quiescent: transfers a worker result back into
  /// the main manager.
  bdd::Bdd export_to_main(std::size_t w, const bdd::Bdd& f);

  /// Sharded OR-reduction of per-partition image: pieces are main-manager
  /// transition relations; returns ∪_i unprime(∃cur. piece_i ∧ from).
  bdd::Bdd image(std::span<const bdd::Bdd> pieces, const bdd::Bdd& from);

  /// Sharded OR-reduction of per-partition preimage: `to_primed` is the
  /// target set already renamed to next bits; returns
  /// ∪_i ∃next. piece_i ∧ to_primed.
  bdd::Bdd preimage(std::span<const bdd::Bdd> pieces,
                    const bdd::Bdd& to_primed);

  /// One disjunctive piece of a scheduled (partitioned) transition
  /// relation: up to two conjuncts plus the piece's early-quantification
  /// cubes (see symbolic/relation.hpp). `b` is an invalid handle when the
  /// piece has a single conjunct; `absent_cube` is the true cube when
  /// nothing can be quantified before the product.
  struct ScheduledPiece {
    bdd::Bdd a;
    bdd::Bdd b;
    bdd::Bdd local_cube;
    bdd::Bdd absent_cube;
  };

  /// Sharded image over scheduled pieces: each worker first quantifies the
  /// piece-absent current bits out of `from`, then runs the combined
  /// and-exists over the piece-local bits only.
  bdd::Bdd image(std::span<const ScheduledPiece> pieces, const bdd::Bdd& from);

  /// Sharded preimage over scheduled pieces (`to_primed` already renamed
  /// to next bits; the piece cubes must be the next-bit ones).
  bdd::Bdd preimage(std::span<const ScheduledPiece> pieces,
                    const bdd::Bdd& to_primed);

  /// Deterministic disjunctive split of one transition relation into at
  /// most `k` disjoint pieces by repeated top-variable cofactoring of the
  /// currently largest piece (ties break to the lowest index). Returns a
  /// single-element vector when the relation is too small to be worth
  /// splitting. Cached per root id; the root is pinned.
  const std::vector<bdd::Bdd>& split_relation(const bdd::Bdd& rel,
                                              std::size_t k);

  /// Node-count floor below which split_relation leaves a relation whole.
  static constexpr std::size_t kSplitThreshold = 256;

 private:
  /// Re-checks that every worker's level order still matches the main
  /// manager's (the export's creation-order restore swaps levels);
  /// realigns and drops memos when it does not.
  void sync_order();
  void align_worker(Worker& w);
  void drop_pins();

  bdd::Manager& main_;
  std::size_t jobs_;
  std::vector<std::unique_ptr<Worker>> workers_;
  support::ThreadPool pool_;
  std::vector<bdd::VarIndex> cur_bits_;
  std::vector<bdd::VarIndex> next_bits_;
  std::vector<bdd::VarIndex> swap_perm_;
  std::vector<bdd::VarIndex> order_snapshot_;  // main level -> var
  std::unordered_map<bdd::NodeId, bdd::Bdd> pinned_;
  std::unordered_map<bdd::NodeId, std::vector<bdd::Bdd>> split_cache_;
};

}  // namespace lr::sym
