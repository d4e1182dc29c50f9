#include "inference/truth_inference.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace slade {

namespace {

Status CheckAnswers(const std::vector<WorkerAnswer>& answers,
                    size_t num_tasks) {
  if (num_tasks == 0) {
    return Status::InvalidArgument("num_tasks must be positive");
  }
  for (const WorkerAnswer& a : answers) {
    if (a.task >= num_tasks) {
      return Status::OutOfRange("answer references task " +
                                std::to_string(a.task) + " but num_tasks=" +
                                std::to_string(num_tasks));
    }
  }
  return Status::OK();
}

}  // namespace

Result<InferenceResult> MajorityVote(const std::vector<WorkerAnswer>& answers,
                                     size_t num_tasks) {
  SLADE_RETURN_NOT_OK(CheckAnswers(answers, num_tasks));
  std::vector<uint32_t> positive(num_tasks, 0), total(num_tasks, 0);
  for (const WorkerAnswer& a : answers) {
    ++total[a.task];
    if (a.answer) ++positive[a.task];
  }
  InferenceResult result;
  result.posterior.resize(num_tasks);
  result.labels.resize(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) {
    result.posterior[i] =
        total[i] == 0 ? 0.5
                      : static_cast<double>(positive[i]) /
                            static_cast<double>(total[i]);
    result.labels[i] = result.posterior[i] >= 0.5;
  }
  // Report each worker's agreement with the majority labels.
  std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>> agree;
  for (const WorkerAnswer& a : answers) {
    auto& [match, count] = agree[a.worker];
    ++count;
    if (a.answer == result.labels[a.task]) ++match;
  }
  for (const auto& [worker, counts] : agree) {
    result.worker_accuracy[worker] =
        static_cast<double>(counts.first) /
        static_cast<double>(counts.second);
  }
  return result;
}

Result<InferenceResult> DawidSkeneBinary(
    const std::vector<WorkerAnswer>& answers, size_t num_tasks,
    const DawidSkeneOptions& options) {
  SLADE_RETURN_NOT_OK(CheckAnswers(answers, num_tasks));
  if (!(options.prior_positive > 0.0 && options.prior_positive < 1.0)) {
    return Status::InvalidArgument("prior_positive must be in (0, 1)");
  }
  if (!(options.initial_accuracy > 0.5 && options.initial_accuracy < 1.0)) {
    return Status::InvalidArgument(
        "initial_accuracy must be in (0.5, 1) to break label symmetry");
  }

  // Dense reindexing of workers.
  std::unordered_map<uint32_t, size_t> worker_index;
  for (const WorkerAnswer& a : answers) {
    worker_index.emplace(a.worker, worker_index.size());
  }
  const size_t num_workers = worker_index.size();
  std::vector<double> accuracy(num_workers, options.initial_accuracy);

  // Group answers per task for the E-step.
  std::vector<std::vector<std::pair<size_t, bool>>> by_task(num_tasks);
  for (const WorkerAnswer& a : answers) {
    by_task[a.task].emplace_back(worker_index.at(a.worker), a.answer);
  }

  std::vector<double> posterior(num_tasks, options.prior_positive);
  const double log_prior_pos = std::log(options.prior_positive);
  const double log_prior_neg = std::log1p(-options.prior_positive);

  int iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    // E-step: posteriors from accuracies (log domain).
    double max_delta = 0.0;
    for (size_t i = 0; i < num_tasks; ++i) {
      if (by_task[i].empty()) {
        posterior[i] = 0.5;
        continue;
      }
      double lp = log_prior_pos, ln = log_prior_neg;
      for (const auto& [w, ans] : by_task[i]) {
        const double p = accuracy[w];
        // Positive truth: answer==true is correct; negative truth:
        // answer==false is correct.
        lp += std::log(ans ? p : 1.0 - p);
        ln += std::log(ans ? 1.0 - p : p);
      }
      const double m = std::max(lp, ln);
      const double pos =
          std::exp(lp - m) / (std::exp(lp - m) + std::exp(ln - m));
      max_delta = std::max(max_delta, std::fabs(pos - posterior[i]));
      posterior[i] = pos;
    }

    // M-step: accuracies from posteriors, Beta(a, a) smoothed.
    std::vector<double> correct(num_workers,
                                options.accuracy_pseudo_count *
                                    options.initial_accuracy);
    std::vector<double> count(num_workers, options.accuracy_pseudo_count);
    for (size_t i = 0; i < num_tasks; ++i) {
      for (const auto& [w, ans] : by_task[i]) {
        // P(answer correct) = P(z=1)*[ans] + P(z=0)*[!ans].
        correct[w] += ans ? posterior[i] : 1.0 - posterior[i];
        count[w] += 1.0;
      }
    }
    for (size_t w = 0; w < num_workers; ++w) {
      accuracy[w] = std::clamp(correct[w] / count[w], 1e-3, 1.0 - 1e-3);
    }

    if (max_delta < options.tolerance && iteration > 0) {
      ++iteration;
      break;
    }
  }

  InferenceResult result;
  result.posterior = std::move(posterior);
  result.labels.resize(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) {
    result.labels[i] = result.posterior[i] >= 0.5;
  }
  for (const auto& [worker, idx] : worker_index) {
    result.worker_accuracy[worker] = accuracy[idx];
  }
  result.iterations = iteration;
  return result;
}

double ConfidenceFromAgreement(double agreement_rate) {
  const double excess = 2.0 * agreement_rate - 1.0;
  if (excess <= 0.0) return 0.5;
  return 0.5 * (1.0 + std::sqrt(excess));
}

uint64_t AgreeingPairs(uint64_t positive, uint64_t total) {
  if (positive > total) return 0;
  const uint64_t negative = total - positive;
  return positive * (positive - 1) / 2 + negative * (negative - 1) / 2;
}

double LabelAccuracy(const InferenceResult& result,
                     const std::vector<bool>& truth,
                     const std::vector<WorkerAnswer>& answers) {
  std::unordered_set<TaskId> answered;
  for (const WorkerAnswer& a : answers) answered.insert(a.task);
  if (answered.empty()) return 0.0;
  size_t correct = 0;
  for (TaskId id : answered) {
    if (id < truth.size() && result.labels[id] == truth[id]) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(answered.size());
}

double PositiveRecall(const std::vector<WorkerAnswer>& answers,
                      const std::vector<bool>& truth) {
  std::vector<bool> detected(truth.size(), false);
  for (const WorkerAnswer& a : answers) {
    if (a.answer && a.task < truth.size()) detected[a.task] = true;
  }
  uint64_t positives = 0, hits = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (!truth[i]) continue;
    ++positives;
    if (detected[i]) ++hits;
  }
  return positives == 0 ? 1.0
                        : static_cast<double>(hits) /
                              static_cast<double>(positives);
}

}  // namespace slade
