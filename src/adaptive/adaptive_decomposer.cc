#include "adaptive/adaptive_decomposer.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/random.h"
#include "engine/answer_collector.h"
#include "inference/truth_inference.h"

namespace slade {

namespace {

// Log-reliability each task has collected under `profile`: every answer
// is one posted bin copy's contribution to its task.
std::vector<double> Delivered(const std::vector<WorkerAnswer>& answers,
                              const BinProfile& profile, size_t n) {
  std::vector<double> delivered(n, 0.0);
  for (const WorkerAnswer& a : answers) {
    delivered[a.task] += profile.bin(a.cardinality).log_weight();
  }
  return delivered;
}

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

  // Every real-task answer so far, in posting order; the dispatcher tags
  // each with its bin's cardinality.
  std::vector<WorkerAnswer> answers;
  // Per task: positive/total answer counts per cardinality, for the
  // pairwise-agreement confidence estimator.
  struct TaskAnswerCounts {
    std::vector<std::pair<uint64_t, uint64_t>> per_cardinality;  // pos,total
  };
  std::vector<TaskAnswerCounts> task_answers(n);
  for (auto& t : task_answers) t.per_cardinality.assign(m + 1, {0, 0});
  // Gold probe agreement counts per cardinality (ground truth known).
  std::vector<ProbeObservation> gold(m + 1);
  for (uint32_t l = 1; l <= m; ++l) {
    gold[l].cardinality = l;
    gold[l].bin_cost = initial_profile.bin(l).cost;
  }
  Xoshiro256 probe_rng(options.probe_seed);
  SimulatedDispatcher dispatcher(platform, /*pool=*/nullptr);

  AdaptiveReport report;
  auto planner = MakeSolver(options.solver, options.solver_options);

  for (uint32_t round = 0; round < options.max_rounds; ++round) {
    SLADE_ASSIGN_OR_RETURN(BinProfile profile,
                           WithConfidences(initial_profile, confidences));

    // Outstanding demand under the current estimates.
    const std::vector<double> delivered = Delivered(answers, profile, n);
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
    AnswerCollector collector;
    SLADE_RETURN_NOT_OK(dispatcher.Dispatch(plan, profile, unsatisfied,
                                            ground_truth, &collector));
    const DispatchStats dispatched = collector.stats();
    AdaptiveRoundStats stats;
    stats.bins_posted = dispatched.bins_posted;
    stats.cost = dispatched.platform_cost;
    for (const WorkerAnswer& a : collector.TakeAnswers()) {
      auto& [pos, tot] = task_answers[a.task].per_cardinality[a.cardinality];
      ++tot;
      if (a.answer) ++pos;
      answers.push_back(a);
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
      if (answers.size() >= options.min_answers_for_recalibration) {
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
    const std::vector<double> redelivered = Delivered(answers, updated, n);
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
  report.positive_recall = PositiveRecall(answers, ground_truth);
  return report;
}

}  // namespace slade
