// Copyright (c) the SLADE reproduction authors.
//
// The dispatch layer between decomposition plans and the simulated
// marketplace, and the only code that posts a plan's bins to it. A plan
// names bins; a platform answers posts. The SimulatedDispatcher turns each
// placement copy into one bin post on the (mutex-guarded) Platform, priced
// by the profile the plan was solved under -- routed through an optional
// FaultInjector whose verdict may perturb or transiently fail the post --
// and streams the resulting worker answers into an AnswerCollector,
// translated to global atomic-task ids and tagged with their bin's
// cardinality. Callers derive their own statistics (recall, agreement,
// calibration counts) from those answers. Posting runs on an optional
// ThreadPool, so answers arrive asynchronously and out of order, as on a
// real marketplace; a round barrier is just Wait(). Without a pool every
// copy posts on the calling thread, in plan order.
//
// Outage handling: a post that hits an outage window is retried (each
// attempt advances the injector's schedule, so windows pass); a post that
// stays down for kMaxPostAttempts is dropped -- its would-be answers are
// simply never collected, and the closed-loop engine's truth inference
// sees the shortfall as low posterior confidence.

#ifndef SLADE_ENGINE_ANSWER_COLLECTOR_H_
#define SLADE_ENGINE_ANSWER_COLLECTOR_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "inference/truth_inference.h"
#include "simulator/fault_injector.h"
#include "simulator/platform.h"
#include "solver/plan.h"

namespace slade {

/// \brief Dispatch counters (one collector typically spans one round).
struct DispatchStats {
  uint64_t bins_posted = 0;
  uint64_t answers = 0;
  uint64_t overtime_bins = 0;
  /// Posts abandoned after kMaxPostAttempts consecutive outage verdicts.
  uint64_t dropped_bins = 0;
  /// Outage verdicts absorbed by retries (excludes the dropped posts'
  /// final attempts).
  uint64_t outage_retries = 0;
  /// Incentives actually paid for the posts this collector saw.
  double platform_cost = 0.0;
};

/// \brief Thread-safe sink for asynchronously arriving worker answers.
class AnswerCollector {
 public:
  /// Appends one bin's answers (already translated to global task ids).
  void Accept(std::vector<WorkerAnswer> answers, bool overtime, double cost);
  void CountDroppedBin();
  void CountOutageRetry();

  /// Moves the collected answers out (the collector keeps its counters).
  std::vector<WorkerAnswer> TakeAnswers();

  DispatchStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::vector<WorkerAnswer> answers_;
  DispatchStats stats_;
};

/// One validated, globally-addressed placement awaiting dispatch
/// (defined in answer_collector.cc).
struct DispatchJob;

/// \brief Posts plans to the simulated marketplace.
///
/// The dispatcher serializes platform access internally (the simulator's
/// RNG is one stream); parallelism across pool threads models concurrent
/// HIT completion, not concurrent RNG use. Without a pool, or with a
/// 1-thread pool, the whole dispatch is deterministic in (platform seed,
/// injector seed, plan).
class SimulatedDispatcher {
 public:
  /// `pool` may be null (post on the calling thread) and `injector` may be
  /// null (no fault injection). Everything passed must outlive the
  /// dispatcher.
  SimulatedDispatcher(Platform& platform, ThreadPool* pool,
                      FaultInjector* injector = nullptr);

  /// Give-up bound for a post stuck in outage verdicts.
  static constexpr int kMaxPostAttempts = 64;

  /// Posts every placement copy of `plan`, read straight off its flat
  /// columns, at the bin costs of `profile` -- the profile the plan was
  /// solved and billed under. Placement task ids are plan-local;
  /// `global_of_local[id]` translates them to the global atomic-task ids
  /// used by `ground_truth` (indexed globally) and by the collected
  /// answers. With a pool it returns once every copy is enqueued, and
  /// answers land in `collector` as posts complete; without one every copy
  /// has posted when it returns. Fails before posting anything on a
  /// placement referencing an id outside the mapping or the ground truth,
  /// or whose cardinality is 0, above the profile's, above 65,535, or
  /// smaller than its task count.
  Status Dispatch(const DecompositionPlan& plan, const BinProfile& profile,
                  const std::vector<TaskId>& global_of_local,
                  const std::vector<bool>& ground_truth,
                  AnswerCollector* collector);

  /// Blocks until every enqueued post has completed or been dropped.
  void Wait() {
    if (pool_ != nullptr) pool_->Wait();
  }

 private:
  void PostPlacementCopy(const DispatchJob& job, AnswerCollector* collector);

  Platform& platform_;
  ThreadPool* pool_;
  FaultInjector* injector_;
  std::mutex platform_mutex_;
};

}  // namespace slade

#endif  // SLADE_ENGINE_ANSWER_COLLECTOR_H_
