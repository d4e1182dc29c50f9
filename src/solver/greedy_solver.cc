#include "solver/greedy_solver.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"

namespace slade {

namespace {

// A task with its current threshold residual. Ordered by residual
// descending, then id ascending, so both strategies break ties identically.
struct Entry {
  double residual;
  TaskId id;
};

inline bool EntryGreater(const Entry& a, const Entry& b) {
  if (a.residual != b.residual) return a.residual > b.residual;
  return a.id < b.id;
}

// Selects the bin minimizing the Equation 4 cost-confidence ratio over the
// sorted residual prefix. `prefix[k]` = sum of the k largest residuals
// (prefix[0] = 0). Ties broken toward cheaper, then smaller bins, to keep
// the algorithm deterministic.
uint32_t SelectBin(const BinProfile& profile,
                   const std::vector<double>& prefix, size_t active) {
  const uint32_t m = profile.max_cardinality();
  uint32_t best_l = 1;
  double best_ratio = std::numeric_limits<double>::infinity();
  for (uint32_t l = 1; l <= m; ++l) {
    const TaskBin& b = profile.bin(l);
    const size_t reach = std::min<size_t>(l, active);
    const double denom =
        std::min(static_cast<double>(l) * b.log_weight(), prefix[reach]);
    if (denom <= 0.0) continue;
    const double ratio = b.cost / denom;
    const TaskBin& cur = profile.bin(best_l);
    if (ratio < best_ratio - 1e-15 ||
        (ratio < best_ratio + 1e-15 &&
         (b.cost < cur.cost || (b.cost == cur.cost && l < best_l)))) {
      best_ratio = ratio;
      best_l = l;
    }
  }
  return best_l;
}

}  // namespace

Result<DecompositionPlan> GreedySolver::Solve(const CrowdsourcingTask& task,
                                              const BinProfile& profile) {
  const size_t n = task.size();
  const uint32_t m = profile.max_cardinality();

  // Residuals sorted non-ascending (paper line 3).
  std::vector<Entry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i] = {task.theta(static_cast<TaskId>(i)),
                  static_cast<TaskId>(i)};
  }
  std::sort(entries.begin(), entries.end(), EntryGreater);

  size_t active = n;  // entries[0..active) have residual > 0
  DecompositionPlan plan;
  std::vector<double> prefix(m + 1, 0.0);
  std::vector<Entry> merged;  // scratch for the kFast merge
  merged.reserve(n);

  while (active > 0) {
    // Prefix sums of the top-m residuals for the Equation 4 denominator.
    const size_t top = std::min<size_t>(m, active);
    for (size_t k = 0; k < top; ++k) {
      prefix[k + 1] = prefix[k] + entries[k].residual;
    }
    for (size_t k = top; k < m; ++k) prefix[k + 1] = prefix[k];

    const uint32_t l_star = SelectBin(profile, prefix, active);
    const double w = profile.bin(l_star).log_weight();
    const size_t cover = std::min<size_t>(l_star, active);

    // How many times the exact same decision provably repeats: while the
    // leading run of equal residuals stays at least m long, the selection
    // inputs (the top-m residuals) do not change.
    size_t reps = 1;
    if (strategy_ == Strategy::kFast) {
      size_t run = 1;
      while (run < active &&
             entries[run].residual == entries[0].residual) {
        ++run;
      }
      if (cover == l_star && run >= cover + m) {
        reps = (run - m) / cover;
        if (reps == 0) reps = 1;
      }
    }

    // Lines 6-9: post the bin(s) and lower the residuals.
    for (size_t rep = 0; rep < reps; ++rep) {
      std::vector<TaskId> ids;
      ids.reserve(cover);
      const size_t begin = rep * cover;
      for (size_t k = 0; k < cover; ++k) {
        ids.push_back(entries[begin + k].id);
      }
      plan.Add(l_star, 1, ids);
    }
    const size_t touched = reps * cover;
    for (size_t k = 0; k < touched; ++k) {
      entries[k].residual = std::max(0.0, entries[k].residual - w);
    }

    if (strategy_ == Strategy::kNaive) {
      // Paper line 10: full re-rank.
      std::sort(entries.begin(), entries.begin() + active, EntryGreater);
    } else {
      // entries[0..touched) and entries[touched..active) are each sorted
      // non-ascending; a linear merge restores global order.
      merged.clear();
      size_t a = 0, b = touched;
      while (a < touched && b < active) {
        if (EntryGreater(entries[a], entries[b])) {
          merged.push_back(entries[a++]);
        } else {
          merged.push_back(entries[b++]);
        }
      }
      while (a < touched) merged.push_back(entries[a++]);
      while (b < active) merged.push_back(entries[b++]);
      std::copy(merged.begin(), merged.end(), entries.begin());
    }

    while (active > 0 && entries[active - 1].residual <= kRelEps) {
      --active;
    }
  }
  return plan;
}

}  // namespace slade
