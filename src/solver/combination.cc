#include "solver/combination.h"

#include <algorithm>
#include <cstdio>

#include "common/math_util.h"

namespace slade {

Result<Combination> Combination::Create(Parts parts,
                                        const BinProfile& profile) {
  if (parts.empty()) {
    return Status::InvalidArgument("a combination needs at least one part");
  }
  std::sort(parts.begin(), parts.end());
  uint64_t lcm = 1;
  double unit_cost = 0.0;
  double log_weight = 0.0;
  uint32_t prev_cardinality = 0;
  for (const auto& [cardinality, count] : parts) {
    if (cardinality == prev_cardinality) {
      return Status::InvalidArgument(
          "combination parts must have distinct cardinalities");
    }
    prev_cardinality = cardinality;
    if (cardinality == 0 || cardinality > profile.max_cardinality()) {
      return Status::OutOfRange("combination cardinality " +
                                std::to_string(cardinality) +
                                " outside profile");
    }
    if (count == 0) {
      return Status::InvalidArgument("combination counts must be >= 1");
    }
    const TaskBin& bin = profile.bin(cardinality);
    lcm = SaturatingLcm(lcm, cardinality);
    unit_cost += static_cast<double>(count) * bin.cost /
                 static_cast<double>(cardinality);
    log_weight += static_cast<double>(count) * bin.log_weight();
  }
  return Combination(std::move(parts), lcm, unit_cost, log_weight);
}

double Combination::ExpandInto(const TaskId* ids, size_t count,
                               const BinProfile& profile,
                               DecompositionPlan* plan) const {
  double cost = 0.0;
  for (const auto& [cardinality, copies] : parts_) {
    const size_t k = cardinality;
    for (size_t group = 0; group < count; group += k) {
      const size_t group_size = std::min(k, count - group);
      plan->Add(cardinality, copies, ids + group, group_size);
      cost += static_cast<double>(copies) * profile.bin(cardinality).cost;
    }
  }
  return cost;
}

double Combination::ExpandBlocksInto(const TaskId* ids, uint64_t blocks,
                                     const BinProfile& profile,
                                     DecompositionPlan* plan) const {
  if (blocks == 0) return 0.0;
  const size_t lcm = static_cast<size_t>(lcm_);

  // The placement template of one perfect block: each part (k, n_k) tiles
  // the block's lcm ids into lcm/k groups of exactly k (k divides lcm by
  // construction). Derived once; every block stamps the same groups at its
  // own id offset.
  struct TemplateGroup {
    uint32_t cardinality;
    uint32_t copies;
    size_t begin;  // offset of the group's first id within the block
  };
  std::vector<TemplateGroup> groups;
  double block_cost = 0.0;
  size_t groups_per_block = 0;
  for (const auto& [cardinality, copies] : parts_) {
    groups_per_block += lcm / cardinality;
  }
  groups.reserve(groups_per_block);
  for (const auto& [cardinality, copies] : parts_) {
    for (size_t begin = 0; begin < lcm; begin += cardinality) {
      groups.push_back(TemplateGroup{cardinality, copies, begin});
    }
    block_cost += static_cast<double>(lcm / cardinality) *
                  static_cast<double>(copies) * profile.bin(cardinality).cost;
  }

  // Each part re-lists all lcm ids of the block, so the whole expansion is
  // exactly blocks * parts * lcm id slots -- reserve it all at once.
  plan->Reserve(
      plan->num_placements() + static_cast<size_t>(blocks) * groups_per_block,
      plan->num_task_ids() +
          static_cast<size_t>(blocks) * parts_.size() * lcm);
  for (uint64_t block = 0; block < blocks; ++block) {
    const TaskId* base = ids + static_cast<size_t>(block) * lcm;
    for (const TemplateGroup& g : groups) {
      plan->Add(g.cardinality, g.copies, base + g.begin, g.cardinality);
    }
  }
  return static_cast<double>(blocks) * block_cost;
}

std::string Combination::ToString() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < parts_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%u x b%u", i ? ", " : "",
                  parts_[i].second, parts_[i].first);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "} LCM=%llu UC=%.6f",
                static_cast<unsigned long long>(lcm_), unit_cost_);
  out += buf;
  return out;
}

}  // namespace slade
