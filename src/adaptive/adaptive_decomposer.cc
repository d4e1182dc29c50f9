#include "adaptive/adaptive_decomposer.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/random.h"
#include "inference/truth_inference.h"

namespace slade {

namespace {

// One posted bin's footprint: which tasks it contained at which
// cardinality (needed to recompute delivered reliability when the
// confidence estimates change).
struct PostedBin {
  uint32_t cardinality = 0;
  std::vector<TaskId> tasks;
};

// Rebuilds a BinProfile with the given confidences over the cost schedule
// of `base`.
Result<BinProfile> WithConfidences(const BinProfile& base,
                                   const std::vector<double>& confidences) {
  std::vector<TaskBin> bins;
  bins.reserve(base.size());
  for (uint32_t l = 1; l <= base.max_cardinality(); ++l) {
    TaskBin b = base.bin(l);
    b.confidence = std::clamp(confidences[l - 1], 1e-4, 1.0 - 1e-6);
    bins.push_back(b);
  }
  return BinProfile::Create(std::move(bins));
}

}  // namespace

Result<AdaptiveReport> RunAdaptiveDecomposition(
    Platform& platform, const CrowdsourcingTask& task,
    const BinProfile& initial_profile, const std::vector<bool>& ground_truth,
    const AdaptiveOptions& options) {
  const size_t n = task.size();
  if (ground_truth.size() != n) {
    return Status::InvalidArgument(
        "ground truth size does not match the task");
  }
  if (options.max_rounds == 0) {
    return Status::InvalidArgument("need max_rounds >= 1");
  }
  const uint32_t m = initial_profile.max_cardinality();

  std::vector<double> confidences(m);
  for (uint32_t l = 1; l <= m; ++l) {
    confidences[l - 1] = initial_profile.bin(l).confidence;
  }

  std::vector<PostedBin> posted;  // real task bins posted so far
  uint64_t total_answers = 0;
  // Per task: positive/total answer counts per cardinality, for the
  // pairwise-agreement confidence estimator.
  struct TaskAnswerCounts {
    std::vector<std::pair<uint64_t, uint64_t>> per_cardinality;  // pos,total
  };
  std::vector<TaskAnswerCounts> task_answers(n);
  for (auto& t : task_answers) t.per_cardinality.assign(m + 1, {0, 0});
  std::vector<bool> detected(n, false);
  // Gold probe agreement counts per cardinality (ground truth known).
  std::vector<ProbeObservation> gold(m + 1);
  for (uint32_t l = 1; l <= m; ++l) {
    gold[l].cardinality = l;
    gold[l].bin_cost = initial_profile.bin(l).cost;
  }
  Xoshiro256 probe_rng(options.probe_seed);

  AdaptiveReport report;
  auto planner = MakeSolver(options.solver, options.solver_options);

  for (uint32_t round = 0; round < options.max_rounds; ++round) {
    SLADE_ASSIGN_OR_RETURN(BinProfile profile,
                           WithConfidences(initial_profile, confidences));

    // Outstanding demand under the current estimates.
    std::vector<double> delivered(n, 0.0);
    for (const PostedBin& bin : posted) {
      const double w = profile.bin(bin.cardinality).log_weight();
      for (TaskId id : bin.tasks) delivered[id] += w;
    }
    std::vector<TaskId> unsatisfied;
    std::vector<double> residual_thresholds;
    for (size_t i = 0; i < n; ++i) {
      const double residual = task.theta(static_cast<TaskId>(i)) -
                              delivered[i];
      if (residual > kRelEps) {
        unsatisfied.push_back(static_cast<TaskId>(i));
        residual_thresholds.push_back(InverseLogReduction(residual));
      }
    }
    if (unsatisfied.empty()) break;

    // 1. Plan the residual demands.
    SLADE_ASSIGN_OR_RETURN(
        CrowdsourcingTask residual_task,
        CrowdsourcingTask::FromThresholds(residual_thresholds));
    SLADE_ASSIGN_OR_RETURN(DecompositionPlan plan,
                           planner->Solve(residual_task, profile));

    // 2a. Post the plan's bins and log answers.
    AdaptiveRoundStats stats;
    for (size_t pi = 0; pi < plan.num_placements(); ++pi) {
      const DecompositionPlan::PlacementView placement = plan.view(pi);
      if (placement.num_tasks == 0) continue;
      std::vector<TaskId> global_ids;
      global_ids.reserve(placement.num_tasks);
      std::vector<bool> truth;
      truth.reserve(placement.num_tasks);
      for (uint32_t k = 0; k < placement.num_tasks; ++k) {
        const TaskId global = unsatisfied[placement.tasks[k]];
        global_ids.push_back(global);
        truth.push_back(ground_truth[global]);
      }
      const double cost = initial_profile.bin(placement.cardinality).cost;
      for (uint32_t copy = 0; copy < placement.copies; ++copy) {
        SLADE_ASSIGN_OR_RETURN(
            BinOutcome outcome,
            platform.PostBin(placement.cardinality, cost, truth, 1));
        ++stats.bins_posted;
        stats.cost += cost;
        const AssignmentOutcome& assignment = outcome.assignments.front();
        for (size_t k = 0; k < global_ids.size(); ++k) {
          auto& [pos, tot] =
              task_answers[global_ids[k]]
                  .per_cardinality[placement.cardinality];
          ++tot;
          ++total_answers;
          if (assignment.answers[k]) {
            ++pos;
            detected[global_ids[k]] = true;
          }
        }
        posted.push_back(PostedBin{placement.cardinality, global_ids});
      }
    }

    // 2b. Post gold probe bins (synthetic tasks with known truth).
    for (uint32_t l = 1;
         options.probes_per_cardinality_per_round > 0 && l <= m; ++l) {
      const double cost = initial_profile.bin(l).cost;
      for (uint32_t p = 0; p < options.probes_per_cardinality_per_round;
           ++p) {
        std::vector<bool> truth(l);
        for (uint32_t i = 0; i < l; ++i) {
          truth[i] = probe_rng.NextBernoulli(0.5);
        }
        SLADE_ASSIGN_OR_RETURN(
            BinOutcome outcome,
            platform.PostBin(l, cost, truth, options.probe_assignments));
        stats.cost += cost * static_cast<double>(options.probe_assignments);
        stats.bins_posted += options.probe_assignments;
        for (const AssignmentOutcome& assignment : outcome.assignments) {
          for (uint32_t i = 0; i < l; ++i) {
            ++gold[l].total;
            if (assignment.answers[i] == truth[i]) ++gold[l].correct;
          }
        }
      }
    }
    report.total_cost += stats.cost;

    // 3+4. Re-estimate confidences from (a) gold probes (unbiased, known
    // truth) and (b) the pairwise-agreement moment estimator over real
    // tasks that collected >= 2 answers at the same cardinality.
    {
      std::vector<uint64_t> total(m + 1, 0), correct(m + 1, 0);
      for (uint32_t l = 1; l <= m; ++l) {
        total[l] += gold[l].total;
        correct[l] += gold[l].correct;
      }
      if (total_answers >= options.min_answers_for_recalibration) {
        std::vector<uint64_t> agree_pairs(m + 1, 0), all_pairs(m + 1, 0);
        for (const TaskAnswerCounts& t : task_answers) {
          for (uint32_t l = 1; l <= m; ++l) {
            const auto& [pos, tot] = t.per_cardinality[l];
            if (tot < 2) continue;
            agree_pairs[l] += AgreeingPairs(pos, tot);
            all_pairs[l] += tot * (tot - 1) / 2;
          }
        }
        for (uint32_t l = 1; l <= m; ++l) {
          if (all_pairs[l] == 0) continue;
          const double rate = static_cast<double>(agree_pairs[l]) /
                              static_cast<double>(all_pairs[l]);
          const double r_hat = ConfidenceFromAgreement(rate);
          // Convert into pseudo-counts commensurate with the number of
          // answers behind the pairs so the regression weights gold and
          // agreement evidence comparably.
          const uint64_t pseudo_total = 2 * all_pairs[l];
          ProbeObservation obs;
          obs.cardinality = l;
          obs.total = pseudo_total;
          obs.correct = static_cast<uint64_t>(
              std::llround(r_hat * static_cast<double>(pseudo_total)));
          total[l] += obs.total;
          correct[l] += obs.correct;
        }
      }
      std::vector<ProbeObservation> observations;
      for (uint32_t l = 1; l <= m; ++l) {
        if (total[l] == 0) continue;
        ProbeObservation obs;
        obs.cardinality = l;
        obs.total = total[l];
        obs.correct = correct[l];
        obs.bin_cost = initial_profile.bin(l).cost;
        observations.push_back(obs);
      }
      if (!observations.empty()) {
        auto recalibrated = CalibrateProfile(
            observations, m, CalibrationMethod::kRegression);
        if (recalibrated.ok()) {
          for (uint32_t l = 1; l <= m; ++l) {
            confidences[l - 1] = recalibrated->bin(l).confidence;
          }
        } else {
          for (const ProbeObservation& obs : observations) {
            confidences[obs.cardinality - 1] = CountingEstimate(obs);
          }
        }
      }
    }

    // 5. Recount the shortfall under the new estimates.
    SLADE_ASSIGN_OR_RETURN(BinProfile updated,
                           WithConfidences(initial_profile, confidences));
    std::vector<double> redelivered(n, 0.0);
    for (const PostedBin& bin : posted) {
      const double w = updated.bin(bin.cardinality).log_weight();
      for (TaskId id : bin.tasks) redelivered[id] += w;
    }
    stats.unsatisfied_after = 0;
    for (size_t i = 0; i < n; ++i) {
      if (task.theta(static_cast<TaskId>(i)) - redelivered[i] > kRelEps) {
        ++stats.unsatisfied_after;
      }
    }
    for (uint32_t l = 1; l <= m; ++l) {
      const double true_confidence = platform.ExpectedConfidence(
          l, initial_profile.bin(l).cost);
      stats.max_confidence_error =
          std::max(stats.max_confidence_error,
                   std::fabs(confidences[l - 1] - true_confidence));
    }
    report.round_stats.push_back(stats);
    ++report.rounds;
    report.unsatisfied = stats.unsatisfied_after;
    if (stats.unsatisfied_after == 0) break;
  }

  report.final_confidences = confidences;
  uint64_t positives = 0, hits = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!ground_truth[i]) continue;
    ++positives;
    if (detected[i]) ++hits;
  }
  report.positive_recall =
      positives == 0 ? 1.0
                     : static_cast<double>(hits) /
                           static_cast<double>(positives);
  return report;
}

}  // namespace slade
