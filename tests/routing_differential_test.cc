// Randomized differential suite for registry-routed streaming admission.
//
// The contract under test: routing is a *transparent* layer over the
// streaming engine. With exactly one registered platform, registry-routed
// serving must be placement-for-placement and bill-for-bill identical to
// the plain single-profile StreamingEngine across flush policies, fairness
// on/off and 1/4/8 worker threads -- the router may pick the platform, but
// it must never change what gets solved or what it costs. With N platforms
// registered under identical profiles, the total billed cost must equal
// the single-platform bill (the router only relabels, it never re-prices).
//
// Every delivered slice must also carry its serving (platform, epoch), and
// the registry's routed/billed counters must reconcile with the workload.

#include <cstdint>
#include <future>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/decomposition_engine.h"
#include "engine/plan_splitter.h"
#include "engine/profile_registry.h"
#include "engine/streaming_engine.h"
#include "plan_signature.h"
#include "solver/plan_validator.h"
#include "workload/threshold_gen.h"
#include "workload/workload.h"

namespace slade {
namespace {

struct Submission {
  std::string requester;
  std::vector<CrowdsourcingTask> tasks;

  size_t num_atomic() const {
    size_t n = 0;
    for (const CrowdsourcingTask& t : tasks) n += t.size();
    return n;
  }
};

struct RandomWorkload {
  BinProfile profile;
  std::vector<Submission> submissions;
};

// Same generator shape as streaming_differential_test so the two suites
// probe comparable workload space.
RandomWorkload MakeRandomWorkload(uint64_t seed) {
  std::mt19937_64 rng(seed);

  const DatasetKind dataset =
      (rng() % 2 == 0) ? DatasetKind::kJelly : DatasetKind::kSmic;
  const uint32_t max_cardinality = 4 + static_cast<uint32_t>(rng() % 9);
  auto profile = BuildProfile(MakeModel(dataset), max_cardinality);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();

  ThresholdSpec spec;
  switch (rng() % 4) {
    case 0:
      spec.family = ThresholdFamily::kHomogeneous;
      spec.mu = 0.75 + 0.2 * (static_cast<double>(rng() % 100) / 100.0);
      break;
    case 1:
      spec.family = ThresholdFamily::kNormal;
      spec.mu = 0.9;
      spec.sigma = 0.03;
      break;
    case 2:
      spec.family = ThresholdFamily::kUniform;
      spec.mu = 0.85;
      spec.sigma = 0.1;
      break;
    default:
      spec.family = ThresholdFamily::kHeavyTail;
      break;
  }
  spec.clamp_lo = 0.6;
  spec.clamp_hi = 0.98;

  const size_t num_requesters = 1 + rng() % 5;
  const size_t num_submissions = 2 + rng() % 11;
  RandomWorkload workload{std::move(profile).ValueOrDie(), {}};
  for (size_t s = 0; s < num_submissions; ++s) {
    Submission submission;
    submission.requester = "r" + std::to_string(rng() % num_requesters);
    const size_t num_tasks = 1 + rng() % 3;
    for (size_t k = 0; k < num_tasks; ++k) {
      const size_t n = 1 + rng() % 30;
      auto thresholds = GenerateThresholds(spec, n, rng());
      EXPECT_TRUE(thresholds.ok()) << thresholds.status().ToString();
      auto task =
          CrowdsourcingTask::FromThresholds(std::move(thresholds).ValueOrDie());
      EXPECT_TRUE(task.ok()) << task.status().ToString();
      submission.tasks.push_back(std::move(task).ValueOrDie());
    }
    workload.submissions.push_back(std::move(submission));
  }
  return workload;
}

StreamingOptions PolicyOf(size_t index, uint32_t threads,
                          BatchSharing sharing) {
  StreamingOptions options;
  options.max_delay_seconds = 3600.0;
  options.num_threads = threads;
  options.sharing = sharing;
  switch (index % 4) {
    case 0:
      options.max_pending_submissions = 1;
      break;
    case 1:
      options.max_pending_submissions = 1u << 20;
      options.max_pending_atomic_tasks = 1u << 20;
      break;
    case 2:
      options.max_pending_submissions = 1u << 20;
      options.max_pending_atomic_tasks = 48;
      break;
    default:
      options.max_pending_submissions = 3;
      break;
  }
  return options;
}

struct StreamResult {
  /// Per-requester reassembled plan + summed cost, in admission order.
  std::map<std::string, DecompositionPlan> plans;
  std::map<std::string, double> costs;
  double billed = 0.0;
  /// Serving platform of every delivered slice, in submission order.
  std::vector<std::string> platforms;
  std::vector<uint64_t> epochs;
};

/// Streams the workload through `engine` and reassembles per requester.
StreamResult StreamAndReassemble(const RandomWorkload& workload,
                                 StreamingEngine& engine) {
  std::vector<std::future<Result<RequesterPlan>>> futures;
  futures.reserve(workload.submissions.size());
  for (const Submission& submission : workload.submissions) {
    futures.push_back(engine.Submit(submission.requester, submission.tasks));
  }
  engine.Drain();

  StreamResult result;
  std::map<std::string, size_t> offsets;
  for (size_t i = 0; i < futures.size(); ++i) {
    const Submission& submission = workload.submissions[i];
    auto slice = futures[i].get();
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    if (!slice.ok()) continue;
    EXPECT_EQ(slice->requester_id, submission.requester);
    size_t& offset = offsets[submission.requester];
    result.plans[submission.requester].AppendRange(
        slice->plan, 0, slice->plan.num_placements(),
        static_cast<int64_t>(offset));
    offset += submission.num_atomic();
    result.costs[submission.requester] += slice->cost;
    result.billed += slice->cost;
    result.platforms.push_back(slice->platform);
    result.epochs.push_back(slice->epoch);
  }
  return result;
}

constexpr uint64_t kSuiteSeed = 0x0f'0a7e'd0'105eULL;

TEST(RoutingDifferentialTest, SinglePlatformIdenticalToUnroutedEngine) {
  // One registered platform: the router has no choice to make, so routed
  // serving must be indistinguishable from the plain engine -- identical
  // placements, identical bill -- across flush policies, fairness on/off
  // and thread counts. Slices must carry the serving (platform, epoch).
  constexpr size_t kWorkloads = 40;
  const uint32_t thread_counts[] = {1, 4, 8};
  for (size_t w = 0; w < kWorkloads; ++w) {
    SCOPED_TRACE("workload " + std::to_string(w));
    RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + w);

    StreamingOptions options =
        PolicyOf(w, thread_counts[w % 3], BatchSharing::kIsolated);
    options.fairness.enabled = (w % 2 == 1);

    StreamingEngine plain(workload.profile, options);
    StreamResult baseline = StreamAndReassemble(workload, plain);

    for (RoutingPolicy policy :
         {RoutingPolicy::kCheapest, RoutingPolicy::kStickyRequester}) {
      SCOPED_TRACE(std::string("policy ") + RoutingPolicyName(policy));
      ProfileRegistry registry;
      ASSERT_TRUE(
          registry.Register("solo", BinProfile(workload.profile)).ok());
      StreamingOptions routed_options = options;
      routed_options.registry = &registry;
      routed_options.routing = policy;
      StreamingEngine routed(workload.profile, routed_options);
      StreamResult routed_result = StreamAndReassemble(workload, routed);

      ASSERT_EQ(routed_result.plans.size(), baseline.plans.size());
      for (const auto& [requester, plan] : baseline.plans) {
        SCOPED_TRACE("requester " + requester);
        auto it = routed_result.plans.find(requester);
        ASSERT_NE(it, routed_result.plans.end());
        EXPECT_EQ(PlanSignature(it->second), PlanSignature(plan));
        EXPECT_NEAR(routed_result.costs[requester],
                    baseline.costs[requester],
                    1e-9 + 1e-9 * baseline.costs[requester]);
      }
      EXPECT_NEAR(routed_result.billed, baseline.billed,
                  1e-9 + 1e-9 * baseline.billed);
      for (size_t i = 0; i < routed_result.platforms.size(); ++i) {
        EXPECT_EQ(routed_result.platforms[i], "solo");
        EXPECT_EQ(routed_result.epochs[i], 1u);
      }
      // Unrouted slices carry no platform metadata.
      for (const std::string& platform : baseline.platforms) {
        EXPECT_TRUE(platform.empty());
      }

      // Registry counters reconcile with the workload.
      auto stats = registry.stats();
      ASSERT_EQ(stats.size(), 1u);
      EXPECT_EQ(stats[0].platform_id, "solo");
      EXPECT_EQ(stats[0].routed_submissions, workload.submissions.size());
      uint64_t tasks = 0, atomic = 0;
      for (const Submission& s : workload.submissions) {
        tasks += s.tasks.size();
        atomic += s.num_atomic();
      }
      EXPECT_EQ(stats[0].routed_tasks, tasks);
      EXPECT_EQ(stats[0].routed_atomic_tasks, atomic);
      EXPECT_NEAR(stats[0].billed_cost, baseline.billed,
                  1e-9 + 1e-9 * baseline.billed);
    }
  }
}

TEST(RoutingDifferentialTest, IdenticalPlatformsBillLikeOnePlatform) {
  // N platforms with byte-identical profiles: whatever spread the router
  // produces, the total bill must equal the single-platform bill, every
  // slice must be placement-identical to its solo reference solve, and the
  // per-platform billed counters must sum to the total.
  constexpr size_t kWorkloads = 12;
  for (size_t w = 0; w < kWorkloads; ++w) {
    SCOPED_TRACE("workload " + std::to_string(w));
    RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + 500 + w);

    StreamingOptions options =
        PolicyOf(w, /*threads=*/1 + w % 4, BatchSharing::kIsolated);

    StreamingEngine plain(workload.profile, options);
    StreamResult baseline = StreamAndReassemble(workload, plain);

    for (RoutingPolicy policy :
         {RoutingPolicy::kCheapest, RoutingPolicy::kStickyRequester}) {
      SCOPED_TRACE(std::string("policy ") + RoutingPolicyName(policy));
      ProfileRegistry registry;
      const size_t kPlatforms = 3;
      for (size_t p = 0; p < kPlatforms; ++p) {
        ASSERT_TRUE(registry
                        .Register("p" + std::to_string(p),
                                  BinProfile(workload.profile))
                        .ok());
      }
      StreamingOptions routed_options = options;
      routed_options.registry = &registry;
      routed_options.routing = policy;
      StreamingEngine routed(workload.profile, routed_options);
      StreamResult routed_result = StreamAndReassemble(workload, routed);

      EXPECT_NEAR(routed_result.billed, baseline.billed,
                  1e-9 + 1e-9 * baseline.billed);
      for (const auto& [requester, cost] : baseline.costs) {
        EXPECT_NEAR(routed_result.costs[requester], cost, 1e-9 + 1e-9 * cost);
      }
      // Identical profiles: cheapest always tie-breaks to the smallest id,
      // and sticky pins whatever cheapest chose first -- either way every
      // slice names a registered platform at epoch 1.
      for (const std::string& platform : routed_result.platforms) {
        EXPECT_TRUE(platform == "p0" || platform == "p1" || platform == "p2")
            << platform;
      }
      if (policy == RoutingPolicy::kCheapest) {
        for (const std::string& platform : routed_result.platforms) {
          EXPECT_EQ(platform, "p0");  // deterministic tie-break
        }
      }
      double billed_sum = 0.0;
      for (const PlatformStats& s : registry.stats()) {
        billed_sum += s.billed_cost;
      }
      EXPECT_NEAR(billed_sum, baseline.billed, 1e-9 + 1e-9 * baseline.billed);
    }
  }
}

TEST(RoutingDifferentialTest, ExplicitHintsRouteAndSolvePerPlatform) {
  // kExplicit: each submission names its platform round-robin; every slice
  // echoes the named platform and is placement-identical to its solo
  // reference solve (identical profiles, so placements cannot differ).
  RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + 9000);
  ProfileRegistry registry;
  const std::vector<std::string> platforms = {"alpha", "beta"};
  for (const std::string& p : platforms) {
    ASSERT_TRUE(registry.Register(p, BinProfile(workload.profile)).ok());
  }
  StreamingOptions options =
      PolicyOf(1, /*threads=*/4, BatchSharing::kIsolated);
  options.registry = &registry;
  options.routing = RoutingPolicy::kExplicit;
  StreamingEngine engine(workload.profile, options);

  std::vector<std::future<Result<RequesterPlan>>> futures;
  for (size_t i = 0; i < workload.submissions.size(); ++i) {
    const Submission& submission = workload.submissions[i];
    futures.push_back(engine.Submit(submission.requester, submission.tasks,
                                    /*submission_id=*/{},
                                    platforms[i % platforms.size()]));
  }
  // Without a hint, explicit routing must fail the future cleanly.
  auto no_hint =
      engine.Submit("r0", workload.submissions[0].tasks).get();
  EXPECT_TRUE(no_hint.status().IsInvalidArgument())
      << no_hint.status().ToString();
  // A hint naming an unregistered platform fails with NotFound.
  auto bad_hint = engine
                      .Submit("r0", workload.submissions[0].tasks,
                              /*submission_id=*/{}, "nowhere")
                      .get();
  EXPECT_TRUE(bad_hint.status().IsNotFound()) << bad_hint.status().ToString();
  engine.Drain();

  for (size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE("submission " + std::to_string(i));
    auto slice = futures[i].get();
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    EXPECT_EQ(slice->platform, platforms[i % platforms.size()]);
    EXPECT_EQ(slice->epoch, 1u);
    auto reference =
        SolveBatchSequential(workload.submissions[i].tasks, workload.profile);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(PlanSignature(slice->plan), PlanSignature(reference->plan));
    EXPECT_NEAR(slice->cost, reference->total_cost,
                1e-9 + 1e-9 * reference->total_cost);
  }
  // Failed routes are not counted as routed submissions.
  uint64_t routed = 0;
  for (const PlatformStats& s : registry.stats()) {
    routed += s.routed_submissions;
  }
  EXPECT_EQ(routed, workload.submissions.size());
}

TEST(RoutingDifferentialTest, CheapestPrefersTheCheaperProfile) {
  // Two platforms whose profiles differ only in price: the cost-based
  // router must send every submission to the cheap one, and the bill must
  // equal the cheap platform's single-profile bill.
  RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + 12000);

  // Build an expensive clone: same confidences, 3x the cost per bin.
  std::vector<TaskBin> pricey_bins;
  for (uint32_t l = 1; l <= workload.profile.max_cardinality(); ++l) {
    TaskBin b = workload.profile.bin(l);
    b.cost *= 3.0;
    pricey_bins.push_back(b);
  }
  auto pricey = BinProfile::Create(std::move(pricey_bins));
  ASSERT_TRUE(pricey.ok()) << pricey.status().ToString();

  ProfileRegistry registry;
  ASSERT_TRUE(registry.Register("bargain", BinProfile(workload.profile)).ok());
  ASSERT_TRUE(registry.Register("pricey", *std::move(pricey)).ok());

  const StreamingOptions options =
      PolicyOf(0, /*threads=*/2, BatchSharing::kIsolated);
  StreamingEngine plain(workload.profile, options);
  StreamResult baseline = StreamAndReassemble(workload, plain);

  StreamingOptions routed_options = options;
  routed_options.registry = &registry;
  routed_options.routing = RoutingPolicy::kCheapest;
  StreamingEngine routed(workload.profile, routed_options);
  StreamResult routed_result = StreamAndReassemble(workload, routed);

  for (const std::string& platform : routed_result.platforms) {
    EXPECT_EQ(platform, "bargain");
  }
  EXPECT_NEAR(routed_result.billed, baseline.billed,
              1e-9 + 1e-9 * baseline.billed);
  for (const PlatformStats& s : registry.stats()) {
    if (s.platform_id == "pricey") {
      EXPECT_EQ(s.routed_submissions, 0u);
      EXPECT_DOUBLE_EQ(s.billed_cost, 0.0);
    }
  }
}

}  // namespace
}  // namespace slade
