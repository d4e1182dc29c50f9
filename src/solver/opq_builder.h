// Copyright (c) the SLADE reproduction authors.
// Building the Optimal Priority Queue (paper Definition 4, Algorithm 2).
//
// Algorithm 2 reads the reliability threshold t in exactly one place: a
// combination is judged satisfied iff its log-weight is >= the decision
// key OpqDecisionKey(t) = LogReduction(t) - kOpqBuildEps. Everything else
// that shapes the queue -- which nodes the DFS visits, the Lemma 1
// dominance tests, the frontier -- follows from those judgments and from
// the profile alone. So a build at key k makes the same judgments, and
// returns the same queue element for element, at every key in (lo, hi],
// where lo is the largest log-weight of a node it judged unsatisfied and
// hi the smallest log-weight of a node it judged satisfied. BuildOpq
// reports that interval on the queue (key_interval()); Definition 4 only
// asks log_weight >= theta, so the queue is piecewise constant in the
// threshold, and OpqCache memoizes one build per interval.

#ifndef SLADE_SOLVER_OPQ_BUILDER_H_
#define SLADE_SOLVER_OPQ_BUILDER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "binmodel/task_bin.h"
#include "common/math_util.h"
#include "common/result.h"
#include "solver/combination.h"

namespace slade {

/// Acceptance margin of Algorithm 2's threshold check. Stricter than
/// kRelEps so that plans built from accepted combinations still validate
/// under kRelEps.
inline constexpr double kOpqBuildEps = 1e-12;

/// \brief The decision key of reliability threshold `t` (0 < t < 1):
/// Algorithm 2 judges a combination satisfied iff its log-weight is >= this
/// value. BuildOpq and OpqCache both call this one helper, so they compare
/// the same double.
inline double OpqDecisionKey(double t) {
  return LogReduction(t) - kOpqBuildEps;
}

/// \brief The decision keys (lo, hi] on which a build makes every one of
/// its Algorithm 2 judgments the same, and so returns the same queue.
struct OpqKeyInterval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  bool Contains(double key) const { return lo < key && key <= hi; }
};

/// \brief The optimal priority queue (Definition 4): the Pareto frontier of
/// threshold-satisfying bin combinations over (LCM, unit cost).
///
/// Invariants (asserted by tests):
///  * every element's log_weight() >= theta (condition 3);
///  * elements are sorted by LCM strictly descending (condition 1);
///  * no element is dominated: along the queue, unit cost is strictly
///    increasing as LCM decreases (condition 2);
///  * the last element has LCM == 1 (a pure-b1 combination always
///    survives, which is what guarantees Algorithm 3 terminates).
class OptimalPriorityQueue {
 public:
  /// `interval` defaults to every key: a queue assembled by hand carries no
  /// record of the judgments that would have built it.
  OptimalPriorityQueue(std::vector<Combination> elements, double theta,
                       OpqKeyInterval interval = {});

  const std::vector<Combination>& elements() const { return elements_; }
  size_t size() const { return elements_.size(); }
  const Combination& element(size_t i) const { return elements_[i]; }

  /// The front OPQ_1: largest LCM, lowest unit cost (Lemma 2).
  const Combination& front() const { return elements_.front(); }

  /// The log-domain threshold the queue was built for.
  double theta() const { return theta_; }

  /// The decision keys on which a fresh build returns this very queue; it
  /// contains OpqDecisionKey of the threshold the queue was built for.
  const OpqKeyInterval& key_interval() const { return key_interval_; }

  /// Estimated resident size of this queue in bytes (object plus element
  /// storage plus each element's parts). Used by OpqCache to charge its
  /// ResourceGovernor for capacity-bounded eviction.
  size_t EstimatedBytes() const;

  /// Multi-line rendering mirroring the paper's Table 3.
  std::string ToString() const;

 private:
  std::vector<Combination> elements_;
  double theta_;
  OpqKeyInterval key_interval_;
};

/// \brief Statistics from the Algorithm 2 enumeration (used by the
/// ablation benchmark to quantify the Lemma 1 pruning rule and surfaced
/// through OpqCache / `slade_cli batch --verbose`).
///
/// `nodes_visited` is the same counter the node budget is charged against,
/// and it is filled even when the build fails with ResourceExhausted (it
/// then reads node_budget + 1: the visit that tripped the budget).
struct OpqBuildStats {
  uint64_t nodes_visited = 0;
  uint64_t nodes_pruned_dominated = 0;
  uint64_t insertions = 0;

  /// Accumulates `other` into this (aggregation across many builds).
  void Accumulate(const OpqBuildStats& other) {
    nodes_visited += other.nodes_visited;
    nodes_pruned_dominated += other.nodes_pruned_dominated;
    insertions += other.insertions;
  }
};

/// \brief Options for BuildOpq.
struct OpqBuildOptions {
  /// Abort with ResourceExhausted beyond this many DFS nodes.
  uint64_t node_budget = 50'000'000;
  /// Disable the Lemma 1 dominance pruning of *partial* combinations
  /// (ablation only; the result is identical, just slower).
  bool enable_partial_pruning = true;
};

/// \brief Runs the Algorithm 2 depth-first enumeration with Lemma 1
/// dominance pruning and returns the optimal priority queue for reliability
/// threshold `t` (0 < t < 1).
///
/// This is the production builder: an iterative DFS over an explicit frame
/// stack (no recursion, so adversarially deep profiles cannot blow the call
/// stack) that mutates one in-place count array with push/pop deltas and
/// reads the profile through BinProfile's flat SoA views. The Pareto
/// frontier is kept sorted by LCM descending / unit cost ascending, so the
/// dominance test is a binary search and an insertion evicts a contiguous
/// range. The visited-node inner loop performs no heap allocation; only
/// frontier insertions (rare, counted in OpqBuildStats::insertions) and
/// one-off setup allocate. The queue's key_interval() costs one min or max
/// per judged node.
Result<OptimalPriorityQueue> BuildOpq(const BinProfile& profile, double t,
                                      const OpqBuildOptions& options = {},
                                      OpqBuildStats* stats = nullptr);

/// \brief The original recursive Algorithm 2 enumerator, kept verbatim as a
/// differential-test / ablation reference. Produces an element-for-element
/// identical queue (same counts, LCM, unit-cost order -- pinned by
/// opq_builder_differential_test) but heap-copies the candidate count
/// vector on every visited node and scans the queue linearly for
/// dominance, so it is many times slower and can exhaust the call stack on
/// profiles with tiny log-weights. Reports the same key_interval(). Not for
/// production use.
Result<OptimalPriorityQueue> BuildOpqReference(
    const BinProfile& profile, double t, const OpqBuildOptions& options = {},
    OpqBuildStats* stats = nullptr);

}  // namespace slade

#endif  // SLADE_SOLVER_OPQ_BUILDER_H_
