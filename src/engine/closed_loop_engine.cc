#include "engine/closed_loop_engine.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <set>
#include <utility>

#include "common/math_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "engine/answer_collector.h"
#include "engine/profile_registry.h"

namespace slade {

namespace {

/// One in-flight submission of a round: which workload it bills to and how
/// its plan-local atomic ids map back to global ids.
struct RoundSubmission {
  size_t workload = 0;
  std::vector<TaskId> global_of_local;
  std::future<Result<RequesterPlan>> future;
};

constexpr double kSpammerAccuracyCutoff = 0.6;

/// Scores one round's answers against the simulator's ground truth, per
/// bin cardinality: the (correct, total) counts registry recalibration
/// folds, in cardinality order.
std::vector<ProbeObservation> ScoreByCardinality(
    const std::vector<WorkerAnswer>& answers, const std::vector<bool>& truth) {
  std::map<uint16_t, ProbeObservation> scored;
  for (const WorkerAnswer& a : answers) {
    ProbeObservation& obs = scored[a.cardinality];
    obs.cardinality = a.cardinality;
    ++obs.total;
    if (a.answer == truth[a.task]) ++obs.correct;
  }
  std::vector<ProbeObservation> out;
  out.reserve(scored.size());
  for (const auto& [cardinality, obs] : scored) out.push_back(obs);
  return out;
}

}  // namespace

const char* InferenceKindName(InferenceKind kind) {
  switch (kind) {
    case InferenceKind::kMajorityVote:
      return "majority";
    case InferenceKind::kDawidSkene:
      return "dawid-skene";
  }
  return "unknown";
}

std::string ClosedLoopReport::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "closed loop: %u round(s)%s, %llu answers over %llu bins, "
                "billed %.4f, platform paid %.4f\n"
                "final: accuracy %.4f, %llu under-confident, "
                "%llu atomic task(s) re-decomposed\n",
                rounds, budget_stopped ? " (budget stop)" : "",
                static_cast<unsigned long long>(total_answers),
                static_cast<unsigned long long>(total_bins), billed_cost,
                platform_cost, final_accuracy,
                static_cast<unsigned long long>(final_under_confident),
                static_cast<unsigned long long>(redecomposed_atomic_tasks));
  out += buf;
  out += "round  subs  rej  atomic  bins  dropped  answers  billed    "
         "accuracy  conf    under  spam\n";
  for (const ClosedLoopRoundStats& r : round_stats) {
    std::snprintf(
        buf, sizeof(buf),
        "%5u  %4llu  %3llu  %6llu  %4llu  %7llu  %7llu  %-8.4f  %-8.4f  "
        "%.4f  %5llu  %4llu\n",
        r.round, static_cast<unsigned long long>(r.submissions),
        static_cast<unsigned long long>(r.rejected_submissions),
        static_cast<unsigned long long>(r.atomic_tasks),
        static_cast<unsigned long long>(r.bins_posted),
        static_cast<unsigned long long>(r.dropped_bins),
        static_cast<unsigned long long>(r.answers), r.billed_cost,
        r.accuracy, r.mean_posterior_confidence,
        static_cast<unsigned long long>(r.under_confident_after),
        static_cast<unsigned long long>(r.suspected_spammers));
    out += buf;
  }
  return out;
}

ClosedLoopEngine::ClosedLoopEngine(BinProfile profile,
                                   ClosedLoopOptions options)
    : profile_(std::move(profile)), options_(std::move(options)) {}

Result<ClosedLoopReport> ClosedLoopEngine::Run(
    const std::vector<ClosedLoopWorkload>& workloads) {
  if (workloads.empty()) {
    return Status::InvalidArgument("closed loop needs at least one workload");
  }
  if (options_.max_rounds == 0) {
    return Status::InvalidArgument("max_rounds must be >= 1");
  }
  if (!(options_.min_residual_threshold > 0.0 &&
        options_.min_residual_threshold < 1.0) ||
      !(options_.max_posterior_confidence > 0.5 &&
        options_.max_posterior_confidence < 1.0)) {
    return Status::InvalidArgument(
        "residual threshold / posterior clamps must be probabilities");
  }

  // Global atomic-task space: workload w owns [base[w], base[w+1]).
  std::vector<size_t> base(workloads.size() + 1, 0);
  for (size_t w = 0; w < workloads.size(); ++w) {
    const size_t n = workloads[w].num_atomic_tasks();
    if (workloads[w].tasks.empty()) {
      return Status::InvalidArgument("workload " + std::to_string(w) +
                                     " has no tasks");
    }
    if (workloads[w].ground_truth.size() != n) {
      return Status::InvalidArgument(
          "workload " + std::to_string(w) + " ground truth covers " +
          std::to_string(workloads[w].ground_truth.size()) +
          " tasks, expected " + std::to_string(n));
    }
    base[w + 1] = base[w] + n;
  }
  const size_t n_total = base.back();
  std::vector<bool> truth(n_total);
  std::vector<double> thresholds(n_total);
  for (size_t w = 0; w < workloads.size(); ++w) {
    size_t id = base[w];
    for (size_t k = 0; k < workloads[w].ground_truth.size(); ++k) {
      truth[base[w] + k] = workloads[w].ground_truth[k];
    }
    for (const CrowdsourcingTask& task : workloads[w].tasks) {
      for (size_t k = 0; k < task.size(); ++k) {
        thresholds[id++] = task.threshold(static_cast<TaskId>(k));
      }
    }
  }

  // The run's serving stack: fresh platform, fault schedule, admission
  // engine and marketplace pool.
  Platform platform(options_.platform);
  FaultInjector injector(options_.faults);
  FaultInjector* injector_ptr = options_.faults.any() ? &injector : nullptr;
  StreamingEngine streaming(profile_, options_.streaming);
  ThreadPool pool(std::max<uint32_t>(1, options_.dispatch_threads));
  SimulatedDispatcher dispatcher(platform, &pool, injector_ptr);
  ProfileRegistry* const registry = options_.streaming.registry;

  ClosedLoopReport report;
  std::vector<WorkerAnswer> all_answers;
  std::vector<uint32_t> answer_count(n_total, 0);
  InferenceResult inferred;
  double round1_billed = 0.0;

  // Round 1: the original workloads, one submission each.
  std::vector<RoundSubmission> round_subs;
  round_subs.reserve(workloads.size());
  for (size_t w = 0; w < workloads.size(); ++w) {
    RoundSubmission sub;
    sub.workload = w;
    sub.global_of_local.resize(base[w + 1] - base[w]);
    for (size_t k = 0; k < sub.global_of_local.size(); ++k) {
      sub.global_of_local[k] = static_cast<TaskId>(base[w] + k);
    }
    sub.future =
        streaming.Submit(workloads[w].requester, workloads[w].tasks);
    round_subs.push_back(std::move(sub));
  }

  for (uint32_t round = 1; round <= options_.max_rounds; ++round) {
    ClosedLoopRoundStats stats;
    stats.round = round;
    streaming.Flush();

    // Collect this round's slices and dispatch them to the marketplace.
    AnswerCollector collector;
    Stopwatch dispatch_watch;
    std::vector<RequesterPlan> slices;
    if (options_.keep_round_plans) slices.reserve(round_subs.size());
    const double platform_spent_before = platform.total_spent();
    std::set<std::string> served_platforms;
    for (RoundSubmission& sub : round_subs) {
      Result<RequesterPlan> slice = sub.future.get();
      if (!slice.ok()) {
        if (slice.status().IsResourceExhausted()) {
          // Backpressure rejected the submission; its tasks stay
          // unanswered and fall into the next round's residue.
          ++stats.rejected_submissions;
          continue;
        }
        return slice.status();
      }
      ++stats.submissions;
      stats.atomic_tasks += slice->num_atomic_tasks();
      stats.billed_cost += slice->cost;
      if (!slice->platform.empty()) served_platforms.insert(slice->platform);
      // Post the slice at the prices it was solved and billed under: its
      // serving (platform, epoch) profile in registry mode. Promotions
      // land only after a round's dispatch, so that epoch is still
      // current.
      const BinProfile* serving = &profile_;
      PlatformSnapshot snapshot;
      if (registry != nullptr) {
        SLADE_ASSIGN_OR_RETURN(snapshot, registry->Current(slice->platform));
        if (snapshot.epoch != slice->epoch) {
          return Status::Internal(
              "platform '" + slice->platform + "' moved from epoch " +
              std::to_string(slice->epoch) + " to " +
              std::to_string(snapshot.epoch) + " before dispatch");
        }
        serving = snapshot.profile.get();
      }
      SLADE_RETURN_NOT_OK(dispatcher.Dispatch(
          slice->plan, *serving, sub.global_of_local, truth, &collector));
      if (options_.keep_round_plans) {
        slices.push_back(std::move(*slice));
      }
    }
    dispatcher.Wait();
    stats.dispatch_seconds = dispatch_watch.ElapsedSeconds();
    std::vector<WorkerAnswer> fresh = collector.TakeAnswers();

    // Online recalibration: fold the round's scored answers into the
    // served platform's candidate profile. The simulator is one
    // marketplace, so the fold only applies when exactly one platform
    // served the round -- mixed-platform rounds would attribute one
    // marketplace's reliability to several platforms. A promotion (if the
    // drift tolerance trips) takes effect at the next admission; work
    // already admitted keeps its epoch.
    if (registry != nullptr && served_platforms.size() == 1) {
      Result<uint64_t> folded = registry->FoldOutcomes(
          *served_platforms.begin(), ScoreByCardinality(fresh, truth));
      if (!folded.ok() && !folded.status().IsNotFound()) {
        return folded.status();
      }
    }
    round_subs.clear();
    if (options_.keep_round_plans) {
      report.round_plans.push_back(std::move(slices));
    }

    const DispatchStats dispatched = collector.stats();
    stats.bins_posted = dispatched.bins_posted;
    stats.dropped_bins = dispatched.dropped_bins;
    stats.outage_retries = dispatched.outage_retries;
    stats.answers = dispatched.answers;
    stats.platform_cost = platform.total_spent() - platform_spent_before;
    for (const WorkerAnswer& a : fresh) ++answer_count[a.task];
    all_answers.insert(all_answers.end(), fresh.begin(), fresh.end());

    // Aggregate everything collected so far into per-task posteriors.
    Stopwatch inference_watch;
    Result<InferenceResult> result =
        options_.inference == InferenceKind::kMajorityVote
            ? MajorityVote(all_answers, n_total)
            : DawidSkeneBinary(all_answers, n_total, options_.dawid_skene);
    SLADE_ASSIGN_OR_RETURN(inferred, std::move(result));
    stats.inference_seconds = inference_watch.ElapsedSeconds();
    stats.accuracy = LabelAccuracy(inferred, truth, all_answers);
    for (const auto& [worker, accuracy] : inferred.worker_accuracy) {
      (void)worker;
      if (accuracy < kSpammerAccuracyCutoff) ++stats.suspected_spammers;
    }

    // The under-confident residue: posterior confidence short of the
    // task's threshold (unanswered tasks are maximally unconfident).
    std::vector<TaskId> residue;
    double confidence_sum = 0.0;
    for (size_t i = 0; i < n_total; ++i) {
      const double c =
          std::max(inferred.posterior[i], 1.0 - inferred.posterior[i]);
      confidence_sum += answer_count[i] == 0 ? 0.5 : c;
      if (answer_count[i] == 0) {
        ++stats.unanswered_after;
        residue.push_back(static_cast<TaskId>(i));
      } else if (c + kRelEps < thresholds[i]) {
        residue.push_back(static_cast<TaskId>(i));
      }
    }
    stats.mean_posterior_confidence =
        confidence_sum / static_cast<double>(n_total);
    stats.under_confident_after = residue.size();

    report.billed_cost += stats.billed_cost;
    if (round == 1) round1_billed = report.billed_cost;
    report.round_stats.push_back(stats);
    report.rounds = round;
    report.final_under_confident = residue.size();

    if (residue.empty() || round == options_.max_rounds) break;

    // Retry budgets gate every re-decomposition.
    if (options_.retry_cost_multiple > 0.0 &&
        report.billed_cost >=
            options_.retry_cost_multiple * round1_billed - kRelEps) {
      report.budget_stopped = true;
      break;
    }
    if (options_.max_redecomposed_atomic_tasks > 0) {
      const uint64_t cap = options_.max_redecomposed_atomic_tasks;
      const uint64_t remaining =
          cap - std::min(cap, report.redecomposed_atomic_tasks);
      if (remaining == 0) {
        report.budget_stopped = true;
        break;
      }
      if (residue.size() > remaining) {
        residue.resize(static_cast<size_t>(remaining));
        report.budget_stopped = true;  // partial retry: budget is the cap
      }
    }

    // Re-decompose the residue: per owning workload, one submission of a
    // heterogeneous residual task through the same admission path.
    size_t cursor = 0;
    while (cursor < residue.size()) {
      const size_t w = static_cast<size_t>(
          std::upper_bound(base.begin(), base.end(),
                           static_cast<size_t>(residue[cursor])) -
          base.begin() - 1);
      size_t end = cursor;
      while (end < residue.size() &&
             static_cast<size_t>(residue[end]) < base[w + 1]) {
        ++end;
      }
      RoundSubmission sub;
      sub.workload = w;
      std::vector<double> residual_thresholds;
      residual_thresholds.reserve(end - cursor);
      for (size_t k = cursor; k < end; ++k) {
        const TaskId id = residue[k];
        double t_res = thresholds[id];
        if (answer_count[id] > 0) {
          const double c = std::clamp(
              std::max(inferred.posterior[id], 1.0 - inferred.posterior[id]),
              0.5, options_.max_posterior_confidence);
          // theta(t) - theta(c): exactly the missing log-reliability.
          t_res = InverseLogReduction(LogReduction(thresholds[id]) -
                                      LogReduction(c));
        }
        t_res = std::clamp(t_res, options_.min_residual_threshold, 0.995);
        residual_thresholds.push_back(t_res);
        sub.global_of_local.push_back(id);
      }
      SLADE_ASSIGN_OR_RETURN(
          CrowdsourcingTask residual_task,
          CrowdsourcingTask::FromThresholds(std::move(residual_thresholds)));
      report.redecomposed_atomic_tasks += end - cursor;
      std::vector<CrowdsourcingTask> residual_tasks;
      residual_tasks.push_back(std::move(residual_task));
      sub.future = streaming.Submit(workloads[w].requester,
                                    std::move(residual_tasks));
      round_subs.push_back(std::move(sub));
      cursor = end;
    }
  }

  report.platform_cost = platform.total_spent();
  report.total_answers = all_answers.size();
  report.total_bins = platform.bins_posted();
  if (!report.round_stats.empty()) {
    report.final_accuracy = report.round_stats.back().accuracy;
  }
  streaming.Drain();
  report.streaming = streaming.stats();
  report.faults = injector.stats();
  return report;
}

}  // namespace slade
