// Copyright (c) the SLADE reproduction authors.
//
// The dispatch layer between decomposition plans and the simulated
// marketplace. A plan names bins; a platform answers posts. The
// SimulatedDispatcher turns each placement copy into one bin post on the
// (mutex-guarded) Platform -- routed through an optional FaultInjector
// whose verdict may perturb or transiently fail the post -- and streams
// the resulting worker answers into an AnswerCollector, translated to
// global atomic-task ids. Posting runs on a caller-supplied ThreadPool,
// so answers arrive asynchronously and out of order, as on a real
// marketplace; a round barrier is just pool.Wait().
//
// Outage handling: a post that hits an outage window is retried (each
// attempt advances the injector's schedule, so windows pass); a post that
// stays down for kMaxPostAttempts is dropped -- its would-be answers are
// simply never collected, and the closed-loop engine's truth inference
// sees the shortfall as low posterior confidence.

#ifndef SLADE_ENGINE_ANSWER_COLLECTOR_H_
#define SLADE_ENGINE_ANSWER_COLLECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "binmodel/calibration.h"
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

  /// Folds one posted copy's scoring into the per-cardinality calibration
  /// tally: `correct` of `total` collected answers at `cardinality`
  /// matched the known ground truth. Fed by the dispatcher, which is the
  /// only layer that still knows both the serving cardinality and the
  /// truth (WorkerAnswer records neither).
  void CountCalibration(uint32_t cardinality, uint64_t correct,
                        uint64_t total, double bin_cost);

  /// Moves the per-cardinality tallies out as ProbeObservations (sorted by
  /// cardinality), ready for ProfileRegistry::FoldOutcomes or
  /// CalibrateProfile. The tallies reset; counters stay.
  std::vector<ProbeObservation> TakeCalibrationCounts();

  /// Moves the collected answers out (the collector keeps its counters).
  std::vector<WorkerAnswer> TakeAnswers();

  DispatchStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::vector<WorkerAnswer> answers_;
  std::map<uint32_t, ProbeObservation> calibration_;
  DispatchStats stats_;
};

/// One validated, globally-addressed placement awaiting dispatch
/// (defined in answer_collector.cc).
struct DispatchJob;

/// \brief Posts plans to the simulated marketplace.
///
/// The dispatcher serializes platform access internally (the simulator's
/// RNG is one stream); parallelism across pool threads models concurrent
/// HIT completion, not concurrent RNG use. With a 1-thread pool the whole
/// dispatch is deterministic in (platform seed, injector seed, plan).
class SimulatedDispatcher {
 public:
  /// `injector` may be null (no fault injection). All references must
  /// outlive the dispatcher.
  SimulatedDispatcher(Platform& platform, const BinProfile& profile,
                      ThreadPool& pool, FaultInjector* injector = nullptr);

  /// Give-up bound for a post stuck in outage verdicts.
  static constexpr int kMaxPostAttempts = 64;

  /// Enqueues every placement copy of `plan` for posting, read straight
  /// off its flat columns. Placement task ids are plan-local;
  /// `global_of_local[id]` translates them to the global atomic-task ids
  /// used by `ground_truth` (indexed globally) and by the collected
  /// answers. Returns immediately; answers land in `collector` as posts
  /// complete. Fails fast (before enqueueing) on a placement referencing an
  /// id outside the mapping.
  Status Dispatch(const DecompositionPlan& plan,
                  std::vector<TaskId> global_of_local,
                  const std::vector<bool>& ground_truth,
                  AnswerCollector* collector);

  /// Blocks until every enqueued post has completed or been dropped.
  void Wait() { pool_.Wait(); }

 private:
  void PostPlacementCopy(const DispatchJob& job, AnswerCollector* collector);

  Platform& platform_;
  const BinProfile& profile_;
  ThreadPool& pool_;
  FaultInjector* injector_;
  std::mutex platform_mutex_;
};

}  // namespace slade

#endif  // SLADE_ENGINE_ANSWER_COLLECTOR_H_
