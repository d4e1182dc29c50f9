#include "engine/answer_collector.h"

#include <memory>
#include <string>
#include <utility>

namespace slade {

struct DispatchJob {
  uint16_t cardinality = 0;
  uint32_t copies = 0;
  double cost = 0.0;               // per copy, from the plan's profile
  std::vector<TaskId> global_ids;  // the placement's tasks, mapped globally
  std::vector<bool> truth;         // ground truth per contained task
};

namespace {

// Validates and pre-translates every placement before anything is
// posted, so a malformed plan never half-dispatches.
Result<std::vector<DispatchJob>> BuildDispatchJobs(
    const DecompositionPlan& plan, const BinProfile& profile,
    const std::vector<TaskId>& global_of_local,
    const std::vector<bool>& ground_truth) {
  std::vector<DispatchJob> jobs;
  jobs.reserve(plan.num_placements());
  for (size_t pi = 0; pi < plan.num_placements(); ++pi) {
    const DecompositionPlan::PlacementView p = plan.view(pi);
    if (p.num_tasks == 0) continue;
    if (p.cardinality == 0 || p.cardinality > profile.max_cardinality() ||
        p.cardinality > UINT16_MAX || p.num_tasks > p.cardinality) {
      return Status::InvalidArgument(
          "placement of " + std::to_string(p.num_tasks) +
          " task(s) at cardinality " + std::to_string(p.cardinality) +
          " does not fit the profile (m=" +
          std::to_string(profile.max_cardinality()) + ")");
    }
    DispatchJob job;
    job.cardinality = static_cast<uint16_t>(p.cardinality);
    job.copies = p.copies;
    job.cost = profile.bin(p.cardinality).cost;
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

SimulatedDispatcher::SimulatedDispatcher(Platform& platform, ThreadPool* pool,
                                         FaultInjector* injector)
    : platform_(platform), pool_(pool), injector_(injector) {}

Status SimulatedDispatcher::Dispatch(const DecompositionPlan& plan,
                                     const BinProfile& profile,
                                     const std::vector<TaskId>& global_of_local,
                                     const std::vector<bool>& ground_truth,
                                     AnswerCollector* collector) {
  SLADE_ASSIGN_OR_RETURN(
      std::vector<DispatchJob> jobs,
      BuildDispatchJobs(plan, profile, global_of_local, ground_truth));
  for (DispatchJob& job : jobs) {
    if (pool_ == nullptr) {
      PostPlacementCopy(job, collector);
      continue;
    }
    auto shared = std::make_shared<DispatchJob>(std::move(job));
    pool_->Submit([this, shared, collector] {
      PostPlacementCopy(*shared, collector);
    });
  }
  return Status::OK();
}

void SimulatedDispatcher::PostPlacementCopy(const DispatchJob& job,
                                            AnswerCollector* collector) {
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
        // A post the platform itself rejects (a malformed fault context)
        // surfaces as a dropped bin rather than a crash mid-pool.
        Result<BinOutcome> result =
            platform_.PostBin(job.cardinality, job.cost, job.truth,
                              /*assignments=*/1, decision.context);
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
    for (size_t k = 0; k < job.global_ids.size(); ++k) {
      WorkerAnswer answer;
      answer.worker = assignment.worker_id;
      answer.task = job.global_ids[k];
      answer.answer = assignment.answers[k];
      answer.cardinality = job.cardinality;
      answers.push_back(answer);
    }
    collector->Accept(std::move(answers), outcome.overtime, job.cost);
  }
}

}  // namespace slade
