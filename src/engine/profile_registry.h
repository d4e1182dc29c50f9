// Copyright (c) the SLADE reproduction authors.
// Multi-platform bin-profile registry with epoch-versioned routing and
// online recalibration.
//
// The paper plans against one fixed bin profile, but Section 3.1 frames
// calibration as an ongoing activity ("regularly issue testing task bins"):
// a real serving process faces many crowdsourcing platforms whose worker
// pools drift hour to hour. The registry is the layer between the
// calibration estimators (binmodel/calibration.h) and the serving engines:
//
//  * Platforms register and retire at runtime. Every registered profile is
//    versioned by a monotonically increasing *epoch*; (platform, epoch)
//    identifies one immutable BinProfile snapshot, handed out as a
//    shared_ptr so in-flight micro-batches keep solving against the epoch
//    they were admitted under even after a promotion.
//
//  * A cost-based router picks the serving platform per submission: the
//    cheapest platform by the per-atomic-task bound
//    min_l ceil(theta(t)/w_l) * c_l / l (the best single-bin rate of
//    meeting the task's log-domain threshold), a sticky per-requester
//    assignment, or an explicit platform named by the client.
//
//  * Streamed answer outcomes (ground-truth-scored per-cardinality counts,
//    e.g. from ClosedLoopEngine's dispatched answers) fold into a
//    candidate profile per platform. Every `recalibrate_every` folded
//    answers the candidate is refit with CalibrateProfile; when some
//    cardinality's confidence drifts beyond `drift_tolerance` the
//    candidate is *promoted* as a new epoch.
//
// Promotion must invalidate only the drifted platform's OpqCache entries,
// never the whole cache. Each (platform, epoch) carries a salt
// (SaltOf(platform, epoch)) that callers fold into OpqCache::GetOrBuild;
// epoch listeners receive the retired salt on every promotion/retire and
// evict exactly those entries (see StreamingEngine, which subscribes its
// engine's cache).
//
// Thread-safe: all methods may be called concurrently. Listeners are
// invoked outside the registry lock and must not call back into the
// registry.

#ifndef SLADE_ENGINE_PROFILE_REGISTRY_H_
#define SLADE_ENGINE_PROFILE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "binmodel/calibration.h"
#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "common/result.h"

namespace slade {

/// \brief How the router picks a serving platform for a submission.
enum class RoutingPolicy {
  /// Cheapest estimated cost to meet the submission's thresholds;
  /// deterministic platform-id tie-break. An explicit hint overrides.
  kCheapest,
  /// First routed platform is pinned per requester id and reused while it
  /// stays registered (retired pins re-route and re-pin cheapest). An
  /// explicit hint overrides without re-pinning.
  kStickyRequester,
  /// The submission must name its platform (HTTP `platform` field /
  /// Submit's platform_hint); routing fails without one.
  kExplicit,
};

const char* RoutingPolicyName(RoutingPolicy policy);
Result<RoutingPolicy> ParseRoutingPolicy(const std::string& name);

/// \brief Online recalibration knobs (per registry; applied per platform).
struct RecalibrationOptions {
  /// Attempt a refit every this many folded answers (0 = folding
  /// accumulates but never refits -- recalibration off).
  uint64_t recalibrate_every = 0;
  /// Promote a candidate only when some cardinality's confidence moved by
  /// more than this against the current epoch.
  double drift_tolerance = 0.02;
  /// Estimator for the candidate profile. kRegression (the default)
  /// tolerates partial cardinality coverage, which is what streamed
  /// outcomes provide; kCounting needs every cardinality observed.
  CalibrationMethod method = CalibrationMethod::kRegression;
};

/// \brief One platform's current serving profile, pinned by epoch.
struct PlatformSnapshot {
  std::string platform_id;
  uint64_t epoch = 0;
  /// Fold into OpqCache::GetOrBuild so this epoch's builds are
  /// individually evictable; equals SaltOf(platform_id, epoch).
  uint64_t salt = 0;
  std::shared_ptr<const BinProfile> profile;
};

/// \brief Per-platform routing/billing/recalibration counters.
struct PlatformStats {
  std::string platform_id;
  uint64_t epoch = 0;
  bool live = true;           ///< false once retired
  uint64_t promotions = 0;    ///< epochs beyond the registered one
  uint64_t routed_submissions = 0;
  uint64_t routed_tasks = 0;
  uint64_t routed_atomic_tasks = 0;
  double billed_cost = 0.0;   ///< sum of delivered slice costs
  uint64_t answers_folded = 0;
  /// Max per-cardinality |delta confidence| measured at the latest refit
  /// (whether or not it promoted); 0 before the first refit.
  double last_recalibration_delta = 0.0;
};

/// \brief Thread-safe registry of epoch-versioned platform profiles.
class ProfileRegistry {
 public:
  /// Notified after every epoch change, outside the registry lock:
  /// `retired_salt` keyed the builds that are now stale; `new_epoch` is 0
  /// when the platform was retired rather than promoted.
  using EpochListener = std::function<void(
      const std::string& platform_id, uint64_t retired_salt,
      uint64_t new_epoch)>;

  explicit ProfileRegistry(RecalibrationOptions recalibration = {});

  /// Registers a platform and returns its first epoch. Epochs are
  /// monotonic per platform across retire/re-register cycles (a revived
  /// platform never reuses an old epoch, so stale cache salts stay stale).
  /// Fails with AlreadyExists when the platform is currently registered.
  Result<uint64_t> Register(const std::string& platform_id,
                            BinProfile profile);

  /// Retires a platform: lookups and routing fail until re-registered.
  /// Listeners receive its salt (new_epoch = 0) so caches drop its builds.
  Status Retire(const std::string& platform_id);

  /// Replaces a live platform's profile as a new epoch (a manual
  /// promotion; the online loop calls this internally). Returns the new
  /// epoch; listeners receive the retired salt.
  Result<uint64_t> Promote(const std::string& platform_id,
                           BinProfile profile);

  /// The platform's current epoch snapshot; NotFound when absent or
  /// retired.
  Result<PlatformSnapshot> Current(const std::string& platform_id) const;

  /// Snapshots of every live platform, in platform-id order.
  std::vector<PlatformSnapshot> LiveSnapshots() const;
  size_t live_count() const;

  /// Picks the serving platform for one submission under `policy` (see
  /// RoutingPolicy). A non-empty `platform_hint` always wins -- it is the
  /// HTTP `platform` field -- and fails with NotFound when that platform
  /// is not live.
  Result<PlatformSnapshot> Route(const std::string& requester_id,
                                 const std::vector<CrowdsourcingTask>& tasks,
                                 RoutingPolicy policy,
                                 const std::string& platform_hint = {});

  /// Admission-side routing counters (call once per admitted submission).
  void RecordRouted(const std::string& platform_id, uint64_t num_tasks,
                    uint64_t num_atomic_tasks);
  /// Delivery-side billing counter (call once per delivered slice).
  void RecordBilled(const std::string& platform_id, double cost);

  /// Folds ground-truth-scored outcomes into the platform's candidate
  /// profile. Once `recalibrate_every` answers have accumulated since the
  /// last attempt, refits with CalibrateProfile and promotes a new epoch
  /// when the drift exceeds the tolerance (an unfittable candidate --
  /// e.g. too few distinct cardinalities -- skips the attempt and keeps
  /// accumulating). Returns the new epoch, or 0 when nothing promoted.
  Result<uint64_t> FoldOutcomes(
      const std::string& platform_id,
      const std::vector<ProbeObservation>& outcomes);

  /// Counters for every platform ever registered (retired ones included),
  /// in platform-id order.
  std::vector<PlatformStats> stats() const;

  uint64_t AddEpochListener(EpochListener listener);
  void RemoveEpochListener(uint64_t id);

  const RecalibrationOptions& recalibration() const { return recalibration_; }

  /// The cache salt of one (platform, epoch); never 0 for a valid epoch,
  /// so salted entries never collide with unsalted single-profile use.
  static uint64_t SaltOf(const std::string& platform_id, uint64_t epoch);

  /// The router's cost estimate: sum over atomic tasks of the best
  /// single-bin rate min_l ceil(theta(t)/w_l) * c_l / l. Exposed for the
  /// routing tests.
  static double EstimateCost(const BinProfile& profile,
                             const std::vector<CrowdsourcingTask>& tasks);

 private:
  struct PlatformState {
    bool live = false;
    uint64_t epoch = 0;
    uint64_t salt = 0;
    std::shared_ptr<const BinProfile> profile;
    /// Per-cardinality (correct, total) accumulated since the last
    /// promotion; bin costs come from the current profile at refit time.
    std::map<uint32_t, ProbeObservation> pending;
    uint64_t folded_since_attempt = 0;
    PlatformStats counters;
  };

  /// Installs `profile` as `state`'s next epoch. Requires mutex_ held;
  /// returns the retired salt for the caller to notify with.
  uint64_t PromoteLocked(const std::string& platform_id,
                         PlatformState* state, BinProfile profile);
  void NotifyEpochChange(const std::string& platform_id,
                         uint64_t retired_salt, uint64_t new_epoch);
  PlatformSnapshot SnapshotLocked(const std::string& platform_id,
                                  const PlatformState& state) const;

  const RecalibrationOptions recalibration_;

  mutable std::mutex mutex_;
  /// Every platform ever registered; retired ones keep their state so
  /// epochs stay monotonic and counters stay reportable.
  std::map<std::string, PlatformState> platforms_;
  /// kStickyRequester pins: requester id -> platform id.
  std::map<std::string, std::string> sticky_;
  std::map<uint64_t, EpochListener> listeners_;
  uint64_t next_listener_id_ = 1;
};

}  // namespace slade

#endif  // SLADE_ENGINE_PROFILE_REGISTRY_H_
