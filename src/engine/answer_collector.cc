#include "engine/answer_collector.h"

#include <string>
#include <utility>

namespace slade {

struct DispatchJob {
  uint32_t cardinality = 0;
  uint32_t copies = 0;
  std::vector<TaskId> global_ids;  // the placement's tasks, mapped globally
  std::vector<bool> truth;         // ground truth per contained task
};

namespace {

// Validates and pre-translates every placement before anything is
// enqueued, so a malformed plan never half-dispatches.
Result<std::vector<DispatchJob>> BuildDispatchJobs(
    const DecompositionPlan& plan, const std::vector<TaskId>& global_of_local,
    const std::vector<bool>& ground_truth) {
  std::vector<DispatchJob> jobs;
  jobs.reserve(plan.num_placements());
  for (size_t pi = 0; pi < plan.num_placements(); ++pi) {
    const DecompositionPlan::PlacementView p = plan.view(pi);
    if (p.num_tasks == 0) continue;
    DispatchJob job;
    job.cardinality = p.cardinality;
    job.copies = p.copies;
    job.global_ids.reserve(p.num_tasks);
    job.truth.reserve(p.num_tasks);
    for (uint32_t k = 0; k < p.num_tasks; ++k) {
      TaskId id = p.tasks[k];
      if (id >= global_of_local.size()) {
        return Status::OutOfRange(
            "placement references local task " + std::to_string(id) +
            " but the mapping covers " +
            std::to_string(global_of_local.size()));
      }
      id = global_of_local[id];
      if (id >= ground_truth.size()) {
        return Status::OutOfRange("mapped task " + std::to_string(id) +
                                  " is outside the ground truth (n=" +
                                  std::to_string(ground_truth.size()) + ")");
      }
      job.global_ids.push_back(id);
      job.truth.push_back(ground_truth[id]);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

void AnswerCollector::Accept(std::vector<WorkerAnswer> answers, bool overtime,
                             double cost) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.bins_posted;
  if (overtime) ++stats_.overtime_bins;
  stats_.answers += answers.size();
  stats_.platform_cost += cost;
  answers_.insert(answers_.end(), answers.begin(), answers.end());
}

void AnswerCollector::CountDroppedBin() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.dropped_bins;
}

void AnswerCollector::CountOutageRetry() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.outage_retries;
}

void AnswerCollector::CountCalibration(uint32_t cardinality, uint64_t correct,
                                       uint64_t total, double bin_cost) {
  if (total == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ProbeObservation& obs = calibration_[cardinality];
  obs.cardinality = cardinality;
  obs.correct += correct;
  obs.total += total;
  obs.bin_cost = bin_cost;
}

std::vector<ProbeObservation> AnswerCollector::TakeCalibrationCounts() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProbeObservation> out;
  out.reserve(calibration_.size());
  for (const auto& [cardinality, obs] : calibration_) out.push_back(obs);
  calibration_.clear();
  return out;
}

std::vector<WorkerAnswer> AnswerCollector::TakeAnswers() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WorkerAnswer> out;
  out.swap(answers_);
  return out;
}

DispatchStats AnswerCollector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

SimulatedDispatcher::SimulatedDispatcher(Platform& platform,
                                         const BinProfile& profile,
                                         ThreadPool& pool,
                                         FaultInjector* injector)
    : platform_(platform),
      profile_(profile),
      pool_(pool),
      injector_(injector) {}

Status SimulatedDispatcher::Dispatch(const DecompositionPlan& plan,
                                     std::vector<TaskId> global_of_local,
                                     const std::vector<bool>& ground_truth,
                                     AnswerCollector* collector) {
  SLADE_ASSIGN_OR_RETURN(std::vector<DispatchJob> jobs,
                         BuildDispatchJobs(plan, global_of_local, ground_truth));
  for (DispatchJob& job : jobs) {
    auto shared = std::make_shared<DispatchJob>(std::move(job));
    pool_.Submit([this, shared, collector] {
      PostPlacementCopy(*shared, collector);
    });
  }
  return Status::OK();
}

void SimulatedDispatcher::PostPlacementCopy(const DispatchJob& job,
                                            AnswerCollector* collector) {
  const TaskBin& bin = profile_.bin(job.cardinality);
  for (uint32_t copy = 0; copy < job.copies; ++copy) {
    BinOutcome outcome;
    bool posted = false;
    {
      // One lock per posted copy: the injector verdict and the platform's
      // RNG draws form one atomic step of the simulated marketplace.
      std::lock_guard<std::mutex> lock(platform_mutex_);
      for (int attempt = 0; attempt < kMaxPostAttempts; ++attempt) {
        FaultInjector::Decision decision;
        if (injector_ != nullptr) decision = injector_->NextBin();
        if (decision.outage) {
          collector->CountOutageRetry();
          continue;
        }
        // A post the platform itself rejects (invalid bin) is a plan bug;
        // it surfaces as a dropped bin rather than a crash mid-pool.
        Result<BinOutcome> result = platform_.PostBin(
            job.cardinality, bin.cost, job.truth, /*assignments=*/1,
            decision.context);
        if (result.ok()) {
          outcome = std::move(*result);
          posted = true;
        }
        break;
      }
    }
    if (!posted) {
      collector->CountDroppedBin();
      continue;
    }
    const AssignmentOutcome& assignment = outcome.assignments.front();
    std::vector<WorkerAnswer> answers;
    answers.reserve(job.global_ids.size());
    uint64_t calibration_correct = 0;
    for (size_t k = 0; k < job.global_ids.size(); ++k) {
      WorkerAnswer answer;
      answer.worker = assignment.worker_id;
      answer.task = job.global_ids[k];
      answer.answer = assignment.answers[k];
      if (answer.answer == job.truth[k]) ++calibration_correct;
      answers.push_back(answer);
    }
    collector->CountCalibration(job.cardinality, calibration_correct,
                                job.global_ids.size(), bin.cost);
    collector->Accept(std::move(answers), outcome.overtime, bin.cost);
  }
}

}  // namespace slade
