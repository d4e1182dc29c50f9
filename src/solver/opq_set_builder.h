// Copyright (c) the SLADE reproduction authors.
// Building the set of optimal priority queues over threshold intervals
// (paper Algorithm 4, Example 10).

#ifndef SLADE_SOLVER_OPQ_SET_BUILDER_H_
#define SLADE_SOLVER_OPQ_SET_BUILDER_H_

#include <cstddef>
#include <vector>

#include "binmodel/task_bin.h"
#include "common/math_util.h"
#include "common/result.h"
#include "solver/opq_builder.h"

namespace slade {

/// \brief The partition of the log-threshold range [theta_min, theta_max]
/// into power-of-two intervals, with one OPQ built per interval upper
/// bound (Algorithm 4).
///
/// Interval upper bounds are `tau_i = min(2^{alpha+i+1}, theta_max)` with
/// `alpha = floor(log2 theta_min)`; the queue for interval i is built for
/// the surrogate homogeneous threshold `t = 1 - e^{-tau_i}`, which upper-
/// bounds every task threshold falling into the interval.
class OpqSet {
 public:
  OpqSet(std::vector<double> uppers, std::vector<OptimalPriorityQueue> queues)
      : uppers_(std::move(uppers)), queues_(std::move(queues)) {}

  size_t size() const { return queues_.size(); }
  /// Upper bound tau_i of interval `i` (ascending in i).
  double upper(size_t i) const { return uppers_[i]; }
  const OptimalPriorityQueue& queue(size_t i) const { return queues_[i]; }

  /// Index of the interval whose queue covers log-threshold `theta`
  /// (the lowest i with theta <= tau_i; Algorithm 5 lines 5-7).
  /// `theta` must be <= the largest upper bound.
  Result<size_t> GroupOf(double theta) const;

 private:
  std::vector<double> uppers_;
  std::vector<OptimalPriorityQueue> queues_;
};

/// \brief The Algorithm 4 interval upper bounds for log-threshold range
/// [theta_min, theta_max]: `tau_i = min(2^{alpha+i+1}, theta_max)` with
/// `alpha = floor(log2 theta_min)`, ascending. Never empty. Exposed
/// separately from BuildOpqSet so callers that memoize queue builds (the
/// batch engine's OpqCache) can shard tasks by threshold group without
/// forcing a fresh build per group. Requires 0 < theta_min <= theta_max.
Result<std::vector<double>> ComputeThetaPartition(double theta_min,
                                                  double theta_max);

/// \brief The lookup core of GroupIndexOf, inline and without a Result for
/// per-atomic-task routing loops: the index of the lowest of the `count`
/// ascending `uppers` covering log-threshold `theta` (with the kRelEps
/// tolerance), or `count` when theta exceeds the last bound.
///
/// std::lower_bound's result by a branch-free binary search: the loop runs
/// log2(count) times whatever theta is, and the comparison selects rather
/// than branches, so a batch whose thresholds straddle a bound does not
/// mispredict per atomic task (1M N(0.9, 0.03) thresholds on 3 bounds:
/// ~4.5 ms against ~7 ms with std::lower_bound, on one core of a 4-vCPU
/// Xeon virtual machine).
inline size_t GroupIndexOrEnd(const double* uppers, size_t count,
                              double theta) {
  if (count == 0) return 0;
  const double bound = theta - kRelEps;
  const double* base = uppers;
  for (size_t n = count; n > 1;) {
    const size_t half = n / 2;
    base = base[half] < bound ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - uppers) + (*base < bound ? 1 : 0);
}

/// \brief Index of the lowest partition interval whose upper bound covers
/// log-threshold `theta`. OpqSet::GroupOf, this function and the batch
/// engine's shard routing all go through GroupIndexOrEnd, so they can
/// never diverge. OutOfRange if theta exceeds the last bound.
Result<size_t> GroupIndexOf(const std::vector<double>& uppers, double theta);

/// \brief Runs Algorithm 4 for log-threshold range [theta_min, theta_max].
/// Requires 0 < theta_min <= theta_max.
Result<OpqSet> BuildOpqSet(const BinProfile& profile, double theta_min,
                           double theta_max,
                           const OpqBuildOptions& options = {});

}  // namespace slade

#endif  // SLADE_SOLVER_OPQ_SET_BUILDER_H_
