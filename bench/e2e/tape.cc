// Deterministic inputs and the reference solve.
//
// Every submission is a pure function of (mix, seed, stream, index), so a
// run never stores its tape: the load generator renders requests from it
// and the oracle regenerates the same tasks afterwards to check each
// answer.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "binmodel/profile_model.h"
#include "common/distributions.h"
#include "common/random.h"
#include "e2e.h"
#include "engine/plan_splitter.h"

namespace slade_e2e {

using slade::CrowdsourcingTask;
using slade::Xoshiro256;

namespace {

uint64_t Mix64(uint64_t x) { return slade::SplitMix64(x).Next(); }

uint64_t SubmissionSeed(uint64_t seed, uint64_t stream, uint64_t k) {
  return Mix64(Mix64(Mix64(seed) ^ stream) ^ k);
}

/// A continuous N(0.9, 0.03) threshold, clamped like the Section 7
/// generators and rounded to 6 decimals so its request text is short and
/// exact.
double ContinuousThreshold(Xoshiro256& rng) {
  static const slade::NormalDistribution normal(0.9, 0.03);
  const double t = std::clamp(normal.Sample(rng), 0.5, 0.995);
  return std::round(t * 1e6) / 1e6;
}

/// Zipf(1.1) CDF over 64 tenants.
const std::array<double, 64>& ZipfCdf() {
  static const std::array<double, 64> cdf = [] {
    std::array<double, 64> out{};
    double sum = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      out[i] = sum;
    }
    for (double& v : out) v /= sum;
    return out;
  }();
  return cdf;
}

void AppendThreshold(std::string* out, double t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", t);
  if (std::strtod(buf, nullptr) != t) {
    std::snprintf(buf, sizeof(buf), "%.17g", t);
  } else {
    // Shortest form: drop trailing zeros ("0.800000" -> "0.8").
    size_t len = std::strlen(buf);
    while (len > 2 && buf[len - 1] == '0' && buf[len - 2] != '.') --len;
    buf[len] = '\0';
  }
  out->append(buf);
}

}  // namespace

size_t Submission::num_atomic() const {
  size_t n = 0;
  for (const CrowdsourcingTask& task : tasks) n += task.size();
  return n;
}

Submission MakeSubmission(Mix mix, uint64_t seed, uint64_t stream,
                          uint64_t k) {
  Xoshiro256 rng(SubmissionSeed(seed, stream, k));
  Submission out;
  uint64_t tenant = 0;
  if (mix == Mix::kStream) {
    const auto& cdf = ZipfCdf();
    const double u = rng.NextDouble();
    tenant = static_cast<uint64_t>(
        std::upper_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
  } else {
    tenant = rng.NextBounded(8);
  }
  out.requester = "t" + std::to_string(tenant);
  if (mix == Mix::kServeDurable && tenant >= 4) out.platform_hint = "b";

  static constexpr double kLevels[] = {0.80, 0.85, 0.90, 0.95, 0.99};
  const uint64_t num_tasks = 1 + rng.NextBounded(3);
  out.tasks.reserve(num_tasks);
  for (uint64_t t = 0; t < num_tasks; ++t) {
    const size_t n = 10 + rng.NextBounded(21);
    std::vector<double> thresholds(n);
    if (mix == Mix::kStream) {
      std::fill(thresholds.begin(), thresholds.end(),
                kLevels[rng.NextBounded(5)]);
    } else {
      for (double& v : thresholds) v = ContinuousThreshold(rng);
    }
    auto task = CrowdsourcingTask::FromThresholds(std::move(thresholds));
    if (!task.ok()) throw Fatal("tape: " + task.status().ToString());
    out.tasks.push_back(std::move(*task));
  }
  return out;
}

std::string RenderSubmitRequest(const Submission& submission,
                                const std::string& submission_id) {
  std::string body = "{\"requester\":\"" + submission.requester + "\"";
  if (!submission_id.empty()) {
    body += ",\"submission_id\":\"" + submission_id + "\"";
  }
  if (!submission.platform_hint.empty()) {
    body += ",\"platform\":\"" + submission.platform_hint + "\"";
  }
  body += ",\"tasks\":[";
  for (size_t i = 0; i < submission.tasks.size(); ++i) {
    body += i > 0 ? ",[" : "[";
    const std::vector<double>& thresholds = submission.tasks[i].thresholds();
    for (size_t k = 0; k < thresholds.size(); ++k) {
      if (k > 0) body += ',';
      AppendThreshold(&body, thresholds[k]);
    }
    body += ']';
  }
  body += "]}";
  return "POST /v1/submit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::vector<double> PoissonSchedule(uint64_t seed, uint64_t stream,
                                    double rate, double seconds) {
  Xoshiro256 rng(SubmissionSeed(seed, stream, ~0ull));
  std::vector<double> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.05) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.NextDouble()) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

slade::BinProfile Jelly10() {
  auto profile = slade::BuildProfile(
      slade::MakeModel(slade::DatasetKind::kJelly), 10);
  if (!profile.ok()) throw Fatal(profile.status().ToString());
  return *profile;
}

slade::BinProfile Smic8() {
  auto profile =
      slade::BuildProfile(slade::MakeModel(slade::DatasetKind::kSmic), 8);
  if (!profile.ok()) throw Fatal(profile.status().ToString());
  return *profile;
}

namespace {

slade::EngineOptions OracleOptions() {
  slade::EngineOptions options;
  options.num_threads = 4;
  options.sharing = slade::BatchSharing::kIsolated;
  // Continuous thresholds would grow the memo without bound; eviction
  // never changes a plan.
  options.resources.cache_max_entries = 1u << 15;
  return options;
}

}  // namespace

Oracle::Oracle() : engine_(OracleOptions()) {}

std::vector<double> Oracle::Costs(
    size_t count, const std::function<Submission(size_t)>& make,
    const slade::BinProfile& profile) {
  constexpr size_t kChunk = 4096;
  std::vector<double> costs;
  costs.reserve(count);
  std::vector<CrowdsourcingTask> tasks;
  std::vector<slade::RequesterSpan> spans;
  for (size_t begin = 0; begin < count; begin += kChunk) {
    const size_t end = std::min(count, begin + kChunk);
    tasks.clear();
    spans.clear();
    for (size_t i = begin; i < end; ++i) {
      Submission submission = make(i);
      spans.push_back({submission.requester, tasks.size(),
                       submission.tasks.size()});
      for (CrowdsourcingTask& task : submission.tasks) {
        tasks.push_back(std::move(task));
      }
    }
    auto report = engine_.SolveBatch(tasks, profile);
    if (!report.ok()) throw Fatal("oracle: " + report.status().ToString());
    auto slices = slade::PlanSplitter::SplitBySpans(*report, profile, spans);
    if (!slices.ok()) throw Fatal("oracle: " + slices.status().ToString());
    for (const slade::RequesterPlan& slice : *slices) {
      costs.push_back(slice.cost);
    }
  }
  return costs;
}

}  // namespace slade_e2e
