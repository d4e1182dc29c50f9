// Copyright (c) the SLADE reproduction authors.
//
// Truth inference over redundant crowd answers. The SLADE paper assumes an
// aggregation layer exists ("each atomic task is usually performed by
// multiple crowd workers to guarantee the quality of the task", Section
// 3.1, citing CrowdER [5] and Zheng et al. [7]); this module provides it:
//
//   * majority voting -- the baseline aggregator;
//   * a binary one-coin Dawid-Skene EM -- jointly estimates per-worker
//     accuracy and per-task truth posteriors.
//
// The closed loop (engine/closed_loop_engine.h) aggregates every round's
// answers with one of them. The adaptive decomposer (src/adaptive/) instead
// monitors bin confidence on-line from gold probe bins and the pairwise-
// agreement estimator below, mirroring the paper's "testing task bins as
// real-time probes" discussion.

#ifndef SLADE_INFERENCE_TRUTH_INFERENCE_H_
#define SLADE_INFERENCE_TRUTH_INFERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "binmodel/task.h"
#include "common/result.h"

namespace slade {

/// \brief One worker's boolean answer to one atomic task.
struct WorkerAnswer {
  uint32_t worker = 0;
  TaskId task = 0;
  bool answer = false;
  /// Cardinality of the bin the answer came from (0 when unknown).
  uint16_t cardinality = 0;
};
// Runs keep every answer they collect: the tag must not grow the record.
static_assert(sizeof(WorkerAnswer) == 12, "WorkerAnswer grew");

/// \brief Output of an inference run.
struct InferenceResult {
  /// P(truth = positive) per task; 0.5 for tasks with no answers.
  std::vector<double> posterior;
  /// Hard labels: posterior >= 0.5.
  std::vector<bool> labels;
  /// Estimated accuracy per worker id (EM only; majority voting reports
  /// the empirical agreement with the majority labels).
  std::unordered_map<uint32_t, double> worker_accuracy;
  /// EM iterations executed (0 for majority voting).
  int iterations = 0;
};

/// \brief Majority voting: posterior = fraction of positive answers
/// (ties -> 0.5). `num_tasks` sizes the output; answers referencing tasks
/// beyond it are rejected.
Result<InferenceResult> MajorityVote(const std::vector<WorkerAnswer>& answers,
                                     size_t num_tasks);

/// \brief Options for the EM aggregator.
struct DawidSkeneOptions {
  int max_iterations = 100;
  /// Stop when the largest posterior change falls below this.
  double tolerance = 1e-8;
  /// Prior probability that a task's truth is positive.
  double prior_positive = 0.5;
  /// Beta(a, a) pseudo-counts regularizing worker accuracies toward the
  /// initial value; prevents degenerate 0/1 accuracies for workers with
  /// few answers.
  double accuracy_pseudo_count = 2.0;
  /// Initial worker accuracy (must be > 0.5 to break the label-flip
  /// symmetry of the one-coin model).
  double initial_accuracy = 0.7;
};

/// \brief Binary one-coin Dawid-Skene EM: each worker answers correctly
/// with (latent) probability p_j independent of the true label.
///
/// E-step: task posteriors from current accuracies; M-step: accuracies
/// from current posteriors, with Beta smoothing. Converges to a local
/// optimum; with `initial_accuracy > 0.5` the truthful labeling basin is
/// selected.
Result<InferenceResult> DawidSkeneBinary(
    const std::vector<WorkerAnswer>& answers, size_t num_tasks,
    const DawidSkeneOptions& options = {});

/// \brief Fraction of tasks whose inferred label matches `truth`
/// (evaluation helper; only counts tasks that received >= 1 answer).
double LabelAccuracy(const InferenceResult& result,
                     const std::vector<bool>& truth,
                     const std::vector<WorkerAnswer>& answers);

/// \brief Fraction of ground-truth-positive tasks with at least one
/// positive answer: the empirical counterpart of Definition 2's "no false
/// negative" reliability. 1.0 when `truth` has no positives; answers
/// referencing tasks beyond `truth` are ignored.
double PositiveRecall(const std::vector<WorkerAnswer>& answers,
                      const std::vector<bool>& truth);

/// \brief Moment estimator of worker confidence from pairwise agreement.
///
/// Two independent answers to the same task agree with probability
/// `a = r^2 + (1-r)^2`; inverting on the r > 0.5 branch gives
/// `r = (1 + sqrt(max(0, 2a - 1))) / 2`.
///
/// Unlike agreement-against-inferred-labels, this is consistent without
/// ground truth even at low redundancy: when two workers agree on a WRONG
/// answer, label-based agreement counts both as correct (the majority
/// defines the label), while the pairwise rate prices that case in
/// exactly. The adaptive quality monitor uses it for cardinalities whose
/// bins revisit the same tasks. `agreement_rate` below 0.5 (noisier than
/// coin flips) clamps to r = 0.5.
double ConfidenceFromAgreement(double agreement_rate);

/// \brief Counts agreeing pairs among k boolean answers with
/// `positive` positives: C(positive,2) + C(k-positive,2) of C(k,2).
/// Helper for accumulating pairwise agreement statistics.
uint64_t AgreeingPairs(uint64_t positive, uint64_t total);

}  // namespace slade

#endif  // SLADE_INFERENCE_TRUTH_INFERENCE_H_
