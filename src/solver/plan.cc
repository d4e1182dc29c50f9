#include "solver/plan.h"

#include <cstdio>
#include <cstring>

#include "common/math_util.h"

namespace slade {

DecompositionPlan::DecompositionPlan(const DecompositionPlan& other)
    : arena_(std::make_unique<PlanArena>()) {
  AppendColumns(other);
}

DecompositionPlan& DecompositionPlan::operator=(
    const DecompositionPlan& other) {
  if (this == &other) return *this;
  Clear();
  AppendColumns(other);
  return *this;
}

void DecompositionPlan::Reserve(size_t placements, size_t ids) {
  task_ids_.Reserve(*arena_, ids);
  ends_.Reserve(*arena_, placements);
  cardinality_.Reserve(*arena_, placements);
  copies_.Reserve(*arena_, placements);
}

void DecompositionPlan::Add(uint32_t cardinality, uint32_t copies,
                            const TaskId* ids, size_t n) {
  if (copies == 0) return;
  TaskId* out = task_ids_.AppendN(*arena_, n);
  if (n != 0) std::memcpy(out, ids, n * sizeof(TaskId));
  ends_.PushBack(*arena_, static_cast<uint32_t>(task_ids_.size()));
  cardinality_.PushBack(*arena_, cardinality);
  copies_.PushBack(*arena_, copies);
}

void DecompositionPlan::AppendColumns(const DecompositionPlan& other) {
  AppendRange(other, 0, other.num_placements(), 0);
}

void DecompositionPlan::AppendRange(const DecompositionPlan& other,
                                    size_t first, size_t count,
                                    int64_t id_delta) {
  if (count == 0) return;
  const size_t id_begin = other.placement_begin(first);
  const size_t id_end = other.placement_end(first + count - 1);
  const size_t ids = id_end - id_begin;

  TaskId* id_out = task_ids_.AppendN(*arena_, ids);
  if (id_delta == 0) {
    std::memcpy(id_out, other.task_ids() + id_begin, ids * sizeof(TaskId));
  } else {
    const TaskId* src = other.task_ids() + id_begin;
    for (size_t k = 0; k < ids; ++k) {
      id_out[k] = static_cast<TaskId>(static_cast<int64_t>(src[k]) +
                                      id_delta);
    }
  }

  uint32_t* cards = cardinality_.AppendN(*arena_, count);
  std::memcpy(cards, other.cardinalities() + first, count * sizeof(uint32_t));
  uint32_t* copies = copies_.AppendN(*arena_, count);
  std::memcpy(copies, other.copies() + first, count * sizeof(uint32_t));

  // The ends column needs a rebase: subtract the range's base offset in
  // `other`, add the id count already present here.
  const int64_t rebase = static_cast<int64_t>(task_ids_.size()) -
                         static_cast<int64_t>(id_end);
  uint32_t* ends = ends_.AppendN(*arena_, count);
  const uint32_t* src_ends = other.ends() + first;
  for (size_t k = 0; k < count; ++k) {
    ends[k] =
        static_cast<uint32_t>(static_cast<int64_t>(src_ends[k]) + rebase);
  }
}

void DecompositionPlan::Clear() {
  // The arena rewinds below, so the columns must not keep their stale
  // pointers into it.
  task_ids_.Detach();
  ends_.Detach();
  cardinality_.Detach();
  copies_.Detach();
  arena_->Reset();
}

double DecompositionPlan::TotalCost(const BinProfile& profile,
                                    double carried) const {
  // Per-cardinality cost table: the sweep reads two dense u32 columns and
  // one small table instead of chasing per-placement bin structs.
  const std::vector<TaskBin>& bins = profile.bins();
  std::vector<double> cost_of(bins.size() + 1, 0.0);
  for (const TaskBin& bin : bins) cost_of[bin.cardinality] = bin.cost;
  double cost = carried;
  const size_t n = num_placements();
  for (size_t i = 0; i < n; ++i) {
    if (cardinality_[i] < cost_of.size()) {
      cost += static_cast<double>(copies_[i]) * cost_of[cardinality_[i]];
    }
  }
  return cost;
}

std::vector<uint64_t> DecompositionPlan::BinCounts(
    uint32_t max_cardinality) const {
  std::vector<uint64_t> counts(max_cardinality + 1, 0);
  const size_t n = num_placements();
  for (size_t i = 0; i < n; ++i) {
    if (cardinality_[i] <= max_cardinality) {
      counts[cardinality_[i]] += copies_[i];
    }
  }
  return counts;
}

uint64_t DecompositionPlan::TotalBinInstances() const {
  uint64_t total = 0;
  const size_t n = num_placements();
  for (size_t i = 0; i < n; ++i) total += copies_[i];
  return total;
}

std::vector<double> DecompositionPlan::PerTaskReliability(
    const BinProfile& profile, size_t n) const {
  // Per-cardinality log-weight table, then one flat sweep: placement i
  // scatters `copies * w[l]` into theta over its id range.
  const std::vector<double>& log_weights = profile.log_weights();
  std::vector<double> theta(n, 0.0);
  const size_t placements = num_placements();
  size_t begin = 0;
  for (size_t i = 0; i < placements; ++i) {
    const size_t end = ends_[i];
    const double w = log_weights[cardinality_[i] - 1] *
                     static_cast<double>(copies_[i]);
    for (size_t k = begin; k < end; ++k) {
      const TaskId id = task_ids_[k];
      if (id < n) theta[id] += w;
    }
    begin = end;
  }
  std::vector<double> rel(n);
  for (size_t i = 0; i < n; ++i) rel[i] = InverseLogReduction(theta[i]);
  return rel;
}

std::string DecompositionPlan::Summary(const BinProfile& profile) const {
  std::vector<uint64_t> counts = BinCounts(profile.max_cardinality());
  std::string out = "plan {";
  bool first = true;
  char buf[64];
  for (uint32_t l = 1; l < counts.size(); ++l) {
    if (counts[l] == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%llu x b%u", first ? "" : ", ",
                  static_cast<unsigned long long>(counts[l]), l);
    out += buf;
    first = false;
  }
  std::snprintf(buf, sizeof(buf), "} cost=%.4f", TotalCost(profile));
  out += buf;
  return out;
}

}  // namespace slade
