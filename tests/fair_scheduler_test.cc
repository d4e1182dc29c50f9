// Property tests for the deficit-round-robin flush scheduler and the
// per-tenant quotas (StreamingOptions::fairness).
//
// The quota tests are fully deterministic: huge flush caps + a huge
// deadline park every admission, so quota decisions are observable
// without races (same idiom as streaming_backpressure_test.cc). The DRR
// order tests build their backlog behind a "blocker": one submission
// flushed alone while ParkingHooks holds the solver at that micro-batch's
// durability barrier, until the test has queued the whole backlog. Every
// later batch is then cut from a queue that no longer changes, so batch
// composition -- and each submission's flush id -- is a pure function of
// the DRR rules, and the tests pin exact flush ids.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/hooks.h"
#include "engine/streaming_engine.h"
#include "workload/threshold_gen.h"
#include "workload/workload.h"

namespace slade {
namespace {

CrowdsourcingTask FixedTask(size_t num_atomic, uint64_t seed) {
  ThresholdSpec spec;
  spec.family = ThresholdFamily::kNormal;
  spec.mu = 0.9;
  spec.sigma = 0.03;
  spec.clamp_lo = 0.6;
  spec.clamp_hi = 0.98;
  auto thresholds = GenerateThresholds(spec, num_atomic, seed);
  EXPECT_TRUE(thresholds.ok());
  auto task =
      CrowdsourcingTask::FromThresholds(std::move(thresholds).ValueOrDie());
  EXPECT_TRUE(task.ok());
  return std::move(task).ValueOrDie();
}

/// Huge flush caps + huge deadline: nothing flushes until Flush()/Drain().
StreamingOptions ParkedOptions() {
  StreamingOptions options;
  options.max_pending_submissions = 1u << 20;
  options.max_pending_atomic_tasks = 1u << 20;
  options.max_delay_seconds = 3600.0;
  return options;
}

/// Far over any flush cap used here: flushes alone, at once, and keeps the
/// solver busy while the submissions behind it queue.
CrowdsourcingTask BlockerTask() { return FixedTask(20000, 1); }

/// Journal-free durability hooks whose first SyncOutcomes -- the end of
/// the first micro-batch -- blocks the solver until Release().
class ParkingHooks : public DurabilityHooks {
 public:
  std::string GenerateSubmissionId() override {
    return "s" + std::to_string(next_id_.fetch_add(1));
  }
  Status RecordAdmit(const std::string&, const std::string&,
                     const std::vector<CrowdsourcingTask>&) override {
    return Status::OK();
  }
  Status RecordComplete(const std::string&,
                        const SubmissionOutcome&) override {
    return Status::OK();
  }
  Status RecordReject(const std::string&) override { return Status::OK(); }
  Status SyncOutcomes() override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!parked_) {
      parked_ = true;
      changed_.notify_all();
      changed_.wait(lock, [&] { return released_; });
    }
    return Status::OK();
  }
  bool LookupCompleted(const std::string&,
                       SubmissionOutcome*) const override {
    return false;
  }

  /// Blocks until the solver sits in the first barrier.
  void WaitUntilParked() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    changed_.notify_all();
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  std::mutex mutex_;
  std::condition_variable changed_;
  bool parked_ = false;
  bool released_ = false;
};

/// A canonical text form of a plan slice, for placement-identity checks:
/// every placement as (cardinality x copies: sorted task ids).
std::string PlacementSignature(const RequesterPlan& slice) {
  std::vector<std::string> parts;
  for (size_t i = 0; i < slice.plan.num_placements(); ++i) {
    const DecompositionPlan::PlacementView placement = slice.plan.view(i);
    std::vector<TaskId> tasks(placement.tasks,
                              placement.tasks + placement.num_tasks);
    std::sort(tasks.begin(), tasks.end());
    std::ostringstream part;
    part << placement.cardinality << "x" << placement.copies << ":";
    for (const TaskId id : tasks) part << id << ",";
    parts.push_back(part.str());
  }
  std::sort(parts.begin(), parts.end());
  std::ostringstream signature;
  for (const std::string& part : parts) signature << part << ";";
  return signature.str();
}

// ---------------------------------------------------------------------------
// Per-tenant quotas
// ---------------------------------------------------------------------------

TEST(FairSchedulerTest, QuotaExhaustionRejectsOnlyTheOffendingTenant) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options = ParkedOptions();
  options.fairness.enabled = true;
  options.fairness.tenant_max_pending_atomic_tasks = 4;
  StreamingEngine engine(*profile, options);

  // "hog" fills its quota exactly; the submission parks. The bystander
  // parks too (its own quota is untouched by hog's usage). Check the
  // queue before any rejection: a rejection kicks the worker, so the
  // parked submissions may flush at any point afterwards.
  auto hog_first = engine.Submit("hog", {FixedTask(4, 1)});
  auto bystander = engine.Submit("bystander", {FixedTask(2, 3)});
  EXPECT_EQ(engine.stats().queue_submissions, 2u);
  // Anything more from "hog" is over quota and fails fast.
  auto hog_second = engine.Submit("hog", {FixedTask(1, 2)});
  auto hog_result = hog_second.get();
  ASSERT_FALSE(hog_result.ok());
  EXPECT_TRUE(hog_result.status().IsResourceExhausted())
      << hog_result.status().ToString();

  StreamingStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_tenant_quota, 1u);
  EXPECT_EQ(stats.rejected, 0u);  // quota rejections are counted apart

  engine.Drain();
  EXPECT_TRUE(hog_first.get().ok());
  EXPECT_TRUE(bystander.get().ok());

  // Per-tenant counters tell the same story.
  bool saw_hog = false, saw_bystander = false;
  for (const TenantStats& tenant : engine.tenant_stats()) {
    if (tenant.tenant == "hog") {
      saw_hog = true;
      EXPECT_EQ(tenant.rejected_quota, 1u);
      EXPECT_EQ(tenant.delivered, 1u);
      EXPECT_GT(tenant.billed_cost, 0.0);
    } else if (tenant.tenant == "bystander") {
      saw_bystander = true;
      EXPECT_EQ(tenant.rejected_quota, 0u);
      EXPECT_EQ(tenant.delivered, 1u);
    }
  }
  EXPECT_TRUE(saw_hog);
  EXPECT_TRUE(saw_bystander);
}

TEST(FairSchedulerTest, EmptyQueueAdmitsOneSubmissionOverQuota) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options = ParkedOptions();
  options.fairness.enabled = true;
  options.fairness.tenant_max_pending_atomic_tasks = 2;
  StreamingEngine engine(*profile, options);

  // One submission far over the quota still admits when the tenant's
  // queue is empty -- a quota smaller than one submission cannot starve.
  auto big = engine.Submit("whale", {FixedTask(6, 7), FixedTask(6, 8)});
  EXPECT_EQ(engine.stats().queue_submissions, 1u);
  // But with the queue now nonempty, the quota bites.
  auto refused = engine.Submit("whale", {FixedTask(1, 9)});
  auto refused_result = refused.get();
  ASSERT_FALSE(refused_result.ok());
  EXPECT_TRUE(refused_result.status().IsResourceExhausted());

  engine.Drain();
  EXPECT_TRUE(big.get().ok());
  EXPECT_EQ(engine.stats().rejected_tenant_quota, 1u);
}

TEST(FairSchedulerTest, ByteQuotaIsEnforcedIndependently) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options = ParkedOptions();
  options.fairness.enabled = true;
  // Atomic-task quota is roomy; the byte quota is what trips.
  options.fairness.tenant_max_pending_atomic_tasks = 1u << 20;
  options.fairness.tenant_max_pending_bytes = 64;
  StreamingEngine engine(*profile, options);

  // Any submission's footprint exceeds 64 bytes, so the first one only
  // gets in via the empty-queue rule...
  auto first = engine.Submit("t", {FixedTask(8, 11)});
  // ...and the second trips the byte quota even though it is tiny.
  auto second = engine.Submit("t", {FixedTask(1, 12)});
  auto second_result = second.get();
  ASSERT_FALSE(second_result.ok());
  EXPECT_TRUE(second_result.status().IsResourceExhausted());
  engine.Drain();
  EXPECT_TRUE(first.get().ok());
}

// ---------------------------------------------------------------------------
// Starvation resistance
// ---------------------------------------------------------------------------

TEST(FairSchedulerTest, HeavyBacklogCannotStarveALightTenant) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options;
  // Batches are bounded (8 submissions' worth of atomic tasks), the
  // deadline is parked: flushing is driven purely by the size trigger.
  options.max_pending_atomic_tasks = 64;
  options.max_pending_submissions = 1u << 20;
  options.max_delay_seconds = 3600.0;
  options.fairness.enabled = true;
  options.fairness.quantum_atomic_tasks = 8;  // one submission per visit
  ParkingHooks hooks;
  options.durability = &hooks;
  StreamingEngine engine(*profile, options);

  constexpr int kHeavy = 120;
  constexpr int kLight = 12;
  std::vector<std::future<Result<RequesterPlan>>> heavy_futures;
  std::vector<std::future<Result<RequesterPlan>>> light_futures;
  // The heavy tenant's entire backlog is admitted FIRST; the light tenant
  // only shows up afterwards. Under plain FIFO, every light submission
  // would land in the final micro-batches, behind all of the heavy ones.
  // The first heavy submission is the blocker (flush 0).
  for (int i = 0; i < kHeavy; ++i) {
    heavy_futures.push_back(
        engine.Submit("heavy", {FixedTask(8, 100 + static_cast<uint64_t>(i))}));
    if (i == 0) {
      engine.Flush();
      hooks.WaitUntilParked();
    }
  }
  for (int i = 0; i < kLight; ++i) {
    light_futures.push_back(
        engine.Submit("light", {FixedTask(8, 900 + static_cast<uint64_t>(i))}));
  }
  hooks.Release();
  engine.Drain();

  uint64_t heavy_last_flush = 0;
  for (auto& future : heavy_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    heavy_last_flush = std::max(heavy_last_flush, result->flush_id);
  }
  uint64_t light_last_flush = 0;
  double light_mean_flush = 0.0;
  std::vector<uint64_t> light_flushes;
  for (auto& future : light_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    light_last_flush = std::max(light_last_flush, result->flush_id);
    light_mean_flush += static_cast<double>(result->flush_id);
    light_flushes.push_back(result->flush_id);
  }
  light_mean_flush /= kLight;

  // Exact DRR order: each 8-submission batch alternates heavy and light
  // until light drains in flush 3; the 107 heavy submissions left finish
  // in flushes 4-17.
  EXPECT_EQ(light_flushes, (std::vector<uint64_t>{1, 1, 1, 1, 2, 2, 2, 2, 3,
                                                  3, 3, 3}));
  EXPECT_EQ(heavy_last_flush, 17u);

  // DRR interleaves the tenants: the light tenant finishes while the
  // heavy backlog is still flushing. FIFO would give
  // light_last_flush == heavy_last_flush (light admitted last).
  EXPECT_LT(light_last_flush, heavy_last_flush);
  // And on average the light tenant rides early batches, not the tail.
  EXPECT_LT(light_mean_flush, static_cast<double>(heavy_last_flush) * 0.75);

  const StreamingStats stats = engine.stats();
  EXPECT_EQ(stats.submissions, static_cast<uint64_t>(kHeavy + kLight));
  EXPECT_EQ(stats.rejected_tenant_quota, 0u);
}

TEST(FairSchedulerTest, WeightsScaleATenantsShare) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options;
  options.max_pending_atomic_tasks = 64;
  options.max_pending_submissions = 1u << 20;
  options.max_delay_seconds = 3600.0;
  options.fairness.enabled = true;
  options.fairness.quantum_atomic_tasks = 8;
  options.fairness.weights["gold"] = 4;  // 4x the credit per visit
  ParkingHooks hooks;
  options.durability = &hooks;
  StreamingEngine engine(*profile, options);

  // Equal backlogs; gold should drain well before the default-weight
  // tenant despite being admitted second. The first free submission is
  // the blocker (flush 0).
  constexpr int kEach = 48;
  std::vector<std::future<Result<RequesterPlan>>> free_futures;
  std::vector<std::future<Result<RequesterPlan>>> gold_futures;
  for (int i = 0; i < kEach; ++i) {
    free_futures.push_back(
        engine.Submit("free", {FixedTask(8, 300 + static_cast<uint64_t>(i))}));
    if (i == 0) {
      engine.Flush();
      hooks.WaitUntilParked();
    }
  }
  for (int i = 0; i < kEach; ++i) {
    gold_futures.push_back(
        engine.Submit("gold", {FixedTask(8, 500 + static_cast<uint64_t>(i))}));
  }
  hooks.Release();
  engine.Drain();

  uint64_t free_last = 0, gold_last = 0;
  for (auto& future : free_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    free_last = std::max(free_last, result->flush_id);
  }
  for (auto& future : gold_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    gold_last = std::max(gold_last, result->flush_id);
  }
  // gold was admitted after free yet finishes no later: weight 4 takes 4
  // submissions per scheduler visit to free's 1.
  EXPECT_LE(gold_last, free_last);
  // Exact DRR order: gold's 48 drain in flushes 1-8, and free's last 31
  // then fill flushes 9-12.
  EXPECT_EQ(gold_last, 8u);
  EXPECT_EQ(free_last, 12u);

  for (const TenantStats& tenant : engine.tenant_stats()) {
    if (tenant.tenant == "gold") {
      EXPECT_EQ(tenant.weight, 4u);
    }
    if (tenant.tenant == "free") {
      EXPECT_EQ(tenant.weight, 1u);
    }
    EXPECT_EQ(tenant.delivered, static_cast<uint64_t>(kEach));
  }
}

TEST(FairSchedulerTest, DrrGrantsOneQuantumPerVisit) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options;
  options.max_pending_atomic_tasks = 32;
  options.max_pending_submissions = 1u << 20;
  options.max_delay_seconds = 3600.0;
  options.fairness.enabled = true;
  options.fairness.quantum_atomic_tasks = 8;
  // gold's credit per visit equals the batch cap, so a full batch often
  // cuts its visit short; it must resume on the credit it has left, not
  // earn a second quantum and keep the ring front until it drains.
  options.fairness.weights["gold"] = 4;
  options.fairness.weights["blocker"] = 1u << 20;  // its backlog in one visit
  ParkingHooks hooks;
  options.durability = &hooks;
  StreamingEngine engine(*profile, options);

  constexpr int kEach = 40;
  std::vector<CrowdsourcingTask> gold_tasks;
  std::vector<CrowdsourcingTask> free_tasks;
  for (int i = 0; i < kEach; ++i) {
    gold_tasks.push_back(FixedTask(8, 1000 + static_cast<uint64_t>(i)));
    free_tasks.push_back(FixedTask(8, 2000 + static_cast<uint64_t>(i)));
  }
  auto blocker = engine.Submit("blocker", {BlockerTask()});
  hooks.WaitUntilParked();  // over the caps: flushes alone as flush 0
  std::vector<std::future<Result<RequesterPlan>>> gold_futures;
  std::vector<std::future<Result<RequesterPlan>>> free_futures;
  for (int i = 0; i < kEach; ++i) {
    gold_futures.push_back(engine.Submit("gold", {gold_tasks[i]}));
    free_futures.push_back(engine.Submit("free", {free_tasks[i]}));
  }
  hooks.Release();
  engine.Drain();
  ASSERT_TRUE(blocker.get().ok());

  uint64_t gold_last = 0;
  for (auto& future : gold_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    gold_last = std::max(gold_last, result->flush_id);
  }
  std::vector<uint64_t> free_flushes;
  for (auto& future : free_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    free_flushes.push_back(result->flush_id);
  }
  const auto free_before_gold_done =
      std::count_if(free_flushes.begin(), free_flushes.end(),
                    [&](uint64_t flush) { return flush < gold_last; });
  // Weights 4:1 interleave about one free submission per four gold ones,
  // ~10 before gold's backlog drains; a re-credited gold visit holding
  // the ring front lets through only the first couple.
  EXPECT_GE(free_before_gold_done, 8);
  // Exact DRR order: gold drains in flush 13, after 9 free submissions.
  EXPECT_EQ(gold_last, 13u);
  EXPECT_EQ(free_before_gold_done, 9);
}

// ---------------------------------------------------------------------------
// Placement differential: fairness only reorders, never re-plans
// ---------------------------------------------------------------------------

TEST(FairSchedulerTest, FairnessNeverChangesPlacements) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());

  // The same 24-submission, 3-tenant workload through five differently
  // configured engines. Under BatchSharing::kIsolated every configuration
  // must produce byte-identical plan slices -- fairness and batching
  // change only delivery timing.
  auto run = [&](StreamingOptions options) {
    StreamingEngine engine(*profile, options);
    std::vector<std::future<Result<RequesterPlan>>> futures;
    const char* tenants[3] = {"a", "b", "c"};
    for (int i = 0; i < 24; ++i) {
      futures.push_back(engine.Submit(
          tenants[i % 3], {FixedTask(1 + static_cast<size_t>(i % 5),
                                     40 + static_cast<uint64_t>(i)),
                           FixedTask(3, 70 + static_cast<uint64_t>(i))}));
    }
    engine.Drain();
    std::vector<std::string> signatures;
    std::vector<double> costs;
    for (auto& future : futures) {
      auto result = future.get();
      EXPECT_TRUE(result.ok());
      signatures.push_back(PlacementSignature(*result));
      costs.push_back(result->cost);
    }
    return std::make_pair(signatures, costs);
  };

  StreamingOptions fifo;           // fairness off: the baseline
  fifo.max_delay_seconds = 0.005;
  StreamingOptions fair = fifo;    // fairness on, default weights
  fair.fairness.enabled = true;
  StreamingOptions skewed = fair;  // tiny quantum + skewed weights:
  skewed.fairness.quantum_atomic_tasks = 1;  // maximal reordering
  skewed.fairness.weights["a"] = 7;
  skewed.max_pending_atomic_tasks = 6;  // and tiny micro-batches
  StreamingOptions threaded = fair;  // different solver parallelism
  threaded.num_threads = 2;
  StreamingOptions capped = fifo;  // fairness off, tiny micro-batches
  capped.max_pending_atomic_tasks = 6;

  const auto baseline = run(fifo);
  for (const StreamingOptions& variant : {fair, skewed, threaded, capped}) {
    const auto other = run(variant);
    ASSERT_EQ(other.first.size(), baseline.first.size());
    for (size_t i = 0; i < baseline.first.size(); ++i) {
      EXPECT_EQ(other.first[i], baseline.first[i]) << "submission " << i;
      EXPECT_DOUBLE_EQ(other.second[i], baseline.second[i]);
    }
  }
}

TEST(FairSchedulerTest, SingleTenantFairnessMatchesFifoBatching) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());

  // Fairness off queues every submission in one shared tenant queue, so
  // with one requester both settings run the same DRR ring of one: the
  // fairness flag alone must change no flush. Drive flushing
  // deterministically (parked engine, explicit Drain cycles): every
  // submission must land in the same flush ordinal, with the same
  // placements, whether fairness is on or off.
  auto run = [&](bool fairness_enabled) {
    StreamingOptions options = ParkedOptions();
    options.fairness.enabled = fairness_enabled;
    StreamingEngine engine(*profile, options);
    std::vector<std::future<Result<RequesterPlan>>> futures;
    for (int wave = 0; wave < 3; ++wave) {
      for (int i = 0; i < 7; ++i) {
        futures.push_back(engine.Submit(
            "solo",
            {FixedTask(3, static_cast<uint64_t>(600 + 10 * wave + i))}));
      }
      engine.Drain();  // each wave becomes exactly one micro-batch
    }
    std::vector<std::pair<uint64_t, std::string>> delivered;
    for (auto& future : futures) {
      auto result = future.get();
      EXPECT_TRUE(result.ok());
      delivered.emplace_back(result->flush_id, PlacementSignature(*result));
    }
    return delivered;
  };

  const auto fifo = run(false);
  const auto fair = run(true);
  ASSERT_EQ(fifo.size(), fair.size());
  for (size_t i = 0; i < fifo.size(); ++i) {
    EXPECT_EQ(fair[i].first, fifo[i].first) << "flush id, submission " << i;
    EXPECT_EQ(fair[i].second, fifo[i].second)
        << "placements, submission " << i;
  }
}

// ---------------------------------------------------------------------------
// Fairness off: one shared queue under the same scheduler
// ---------------------------------------------------------------------------

TEST(FairSchedulerTest, FairnessOffBatchesAreCutAtTheFlushCaps) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options;  // fairness off
  options.max_pending_submissions = 2;
  options.max_delay_seconds = 3600.0;
  StreamingEngine engine(*profile, options);

  std::vector<CrowdsourcingTask> tasks;
  for (int i = 0; i < 7; ++i) {
    tasks.push_back(FixedTask(3, 3000 + static_cast<uint64_t>(i)));
  }
  std::vector<std::future<Result<RequesterPlan>>> futures;
  futures.push_back(engine.Submit("blocker", {BlockerTask()}));
  const char* requesters[3] = {"a", "b", "c"};
  for (int i = 0; i < 7; ++i) {
    futures.push_back(engine.Submit(requesters[i % 3], {tasks[i]}));
  }
  engine.Drain();

  // The backlog behind the blocker flushes as several capped batches,
  // never as one batch of everything pending.
  std::map<uint64_t, int> slices_per_flush;
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    slices_per_flush[result->flush_id] += 1;
  }
  for (const auto& [flush_id, slices] : slices_per_flush) {
    EXPECT_LE(slices, 2) << "flush " << flush_id;
  }
}

TEST(FairSchedulerTest, FairnessOffIgnoresTenantQuotasAndWeights) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options = ParkedOptions();  // fairness off
  // With fairness on these would refuse every second submission of a
  // requester and put "late" far ahead of "early".
  options.fairness.tenant_max_pending_atomic_tasks = 1;
  options.fairness.tenant_max_pending_bytes = 1;
  options.fairness.quantum_atomic_tasks = 3;
  options.fairness.weights["late"] = 1000;
  options.max_pending_atomic_tasks = 6;  // two submissions per batch
  StreamingEngine engine(*profile, options);
  EXPECT_TRUE(engine.options().fairness.weights.empty());
  EXPECT_EQ(engine.options().fairness.tenant_max_pending_atomic_tasks, 0u);
  EXPECT_EQ(engine.options().fairness.tenant_max_pending_bytes, 0u);

  std::vector<std::future<Result<RequesterPlan>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        engine.Submit("early", {FixedTask(3, 4000 + static_cast<uint64_t>(i))}));
  }
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        engine.Submit("late", {FixedTask(3, 4100 + static_cast<uint64_t>(i))}));
  }
  engine.Drain();

  // Nothing refused, and delivery follows admission order.
  uint64_t previous_flush = 0;
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(result->flush_id, previous_flush);
    previous_flush = result->flush_id;
  }
  const StreamingStats stats = engine.stats();
  EXPECT_EQ(stats.submissions, 8u);
  EXPECT_EQ(stats.rejected_tenant_quota, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_TRUE(engine.tenant_stats().empty());
}

}  // namespace
}  // namespace slade
