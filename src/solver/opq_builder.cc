#include "solver/opq_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/math_util.h"

namespace slade {

namespace {

// Builder-internal element: a combination's counts plus cached aggregates.
// Both enumerators produce these; FinalizeOpq turns them into Combinations.
struct Cand {
  std::vector<uint32_t> counts;  // counts[l-1] = copies of b_l
  uint64_t lcm = 1;
  double unit_cost = 0.0;
  double log_weight = 0.0;
};

// Frames preallocated for the iterative DFS. Realistic profiles need a
// stack no deeper than theta / min_log_weight (a dozen or two); the cap
// keeps an adversarial bound (tiny log-weights) from reserving gigabytes.
// Deeper paths grow the stack geometrically -- O(log depth) allocations per
// build, never per node.
constexpr size_t kMaxPreallocFrames = 4096;

// The reference enumerator: the original recursive Algorithm 2
// implementation, kept as the differential-test oracle. One heap-copied
// Cand per visited node, O(queue) dominance scans. `key` is the decision
// key (OpqDecisionKey); every node it judges is folded into interval().
class ReferenceEnumerator {
 public:
  ReferenceEnumerator(const BinProfile& profile, double key,
                      const OpqBuildOptions& options, OpqBuildStats* stats)
      : profile_(profile), key_(key), options_(options), stats_(stats) {}

  Status Run() {
    Cand root;
    root.counts.assign(profile_.size(), 0);
    Status status = Enumerate(1, root);
    if (stats_ != nullptr) *stats_ = counters_;
    return status;
  }

  std::vector<Cand> TakeQueue() { return std::move(queue_); }
  const OpqKeyInterval& interval() const { return interval_; }

 private:
  // True iff some already-found combination weakly dominates (lcm, uc).
  bool Dominated(uint64_t lcm, double uc) const {
    for (const Cand& e : queue_) {
      if (e.lcm <= lcm && e.unit_cost <= uc) return true;
    }
    return false;
  }

  // Inserts `cand`, evicting everything it dominates (Algorithm 2 line 10
  // plus the line 2 sweep, maintained incrementally).
  void Insert(Cand cand) {
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [&](const Cand& e) {
                                  return e.lcm >= cand.lcm &&
                                         e.unit_cost >= cand.unit_cost;
                                }),
                 queue_.end());
    queue_.push_back(std::move(cand));
    ++counters_.insertions;
  }

  // Algorithm 2's Enumerate(p, q, S, B, t): extends `cand` with bins of
  // cardinality >= p (multisets enumerated once, in non-decreasing order).
  Status Enumerate(uint32_t p, Cand& cand) {
    const uint32_t m = profile_.max_cardinality();
    for (uint32_t k = p; k <= m; ++k) {
      if (++counters_.nodes_visited > options_.node_budget) {
        return Status::ResourceExhausted(
            "OPQ enumeration exceeded node budget of " +
            std::to_string(options_.node_budget));
      }
      const TaskBin& bin = profile_.bin(k);
      Cand next = cand;
      next.counts[k - 1] += 1;
      next.lcm = SaturatingLcm(cand.lcm, k);
      next.unit_cost =
          cand.unit_cost + bin.cost / static_cast<double>(k);
      next.log_weight = cand.log_weight + bin.log_weight();

      // Lemma 1 pruning: a dominated partial combination can never lead to
      // a Pareto-optimal completion (supersets only grow both LCM and UC).
      if (options_.enable_partial_pruning &&
          Dominated(next.lcm, next.unit_cost)) {
        ++counters_.nodes_pruned_dominated;
        continue;
      }

      if (next.log_weight >= key_) {
        interval_.hi = std::min(interval_.hi, next.log_weight);
        if (!Dominated(next.lcm, next.unit_cost)) {
          Insert(std::move(next));
        } else {
          ++counters_.nodes_pruned_dominated;
        }
        // No recursion: any superset is dominated by `next` itself.
      } else {
        interval_.lo = std::max(interval_.lo, next.log_weight);
        SLADE_RETURN_NOT_OK(Enumerate(k, next));
      }
    }
    return Status::OK();
  }

  const BinProfile& profile_;
  const double key_;
  const OpqBuildOptions& options_;
  OpqBuildStats* stats_;
  std::vector<Cand> queue_;
  OpqBuildStats counters_;
  OpqKeyInterval interval_;
};

// The production enumerator: iterative DFS, one in-place count array, flat
// SoA profile arrays, binary-search dominance against a frontier kept
// sorted by LCM descending / unit cost ascending. Visits nodes in exactly
// the order of ReferenceEnumerator (k ascending per level, child before
// next sibling) and accumulates unit cost / log weight with the identical
// addition sequence, so the resulting queue -- and every counter, and the
// key interval -- is element-for-element identical.
class FastEnumerator {
 public:
  FastEnumerator(const BinProfile& profile, double key,
                 const OpqBuildOptions& options, OpqBuildStats* stats)
      : profile_(profile), key_(key), options_(options), stats_(stats) {}

  Status Run() {
    const uint32_t m = profile_.max_cardinality();
    const double* cost_per_task = profile_.costs_per_task().data();
    const double* log_weights = profile_.log_weights().data();
    counts_.assign(m, 0);

    // gcd(a, k) == gcd(a mod k, k) and k <= m, so one modulo plus a small
    // table replaces the general 64-bit gcd in the LCM update. The table
    // holds values <= m in uint8_t, so it is only used for m <= 255
    // (realistic profiles are m <= 64); larger profiles fall back to the
    // shared SaturatingLcm, which both paths match exactly.
    const bool use_gcd_table = m <= 255;
    std::vector<uint8_t> gcd_table(
        use_gcd_table ? (m + 1) * (m + 1) : 0);
    for (uint32_t k = 1; use_gcd_table && k <= m; ++k) {
      for (uint32_t r = 0; r <= m; ++r) {
        gcd_table[k * (m + 1) + r] =
            static_cast<uint8_t>(r == 0 ? k : std::gcd(r, k));
      }
    }
    const uint8_t* gcd_rows = gcd_table.data();
    const auto fast_lcm = [gcd_rows, m,
                           use_gcd_table](uint64_t a, uint32_t k) -> uint64_t {
      if (!use_gcd_table) return SaturatingLcm(a, k);
      const uint64_t g =
          gcd_rows[k * (m + 1) + static_cast<uint32_t>(a % k)];
      const uint64_t a_over_g = a / g;
      if (a_over_g > kSaturatingLcmCap / k) return kSaturatingLcmCap;
      return a_over_g * k;
    };

    // The DFS only descends while log_weight < key and each level adds
    // at least min_log_weight, which bounds the path length exactly.
    const double depth_bound =
        std::floor(key_ / profile_.min_log_weight()) + 2.0;
    stack_.clear();
    stack_.reserve(static_cast<size_t>(std::clamp(
        depth_bound, 1.0, static_cast<double>(kMaxPreallocFrames))));
    constexpr double kNoWitness = std::numeric_limits<double>::infinity();
    stack_.push_back(Frame{1, 0, 1, 0.0, 0.0, kNoWitness});

    // The node counter and the key interval's ends live in registers for
    // the hot loop; the counter is synced into counters_ on every exit
    // path, the interval once the enumeration completes.
    uint64_t nodes = 0;
    const uint64_t node_budget = options_.node_budget;
    double lo = interval_.lo;
    double hi = interval_.hi;

    while (!stack_.empty()) {
      Frame& frame = stack_.back();
      if (frame.next_k > m) {
        // Every cardinality at this level tried: undo the push that
        // created the level and return to the parent frame.
        if (frame.added_k != 0) --counts_[frame.added_k - 1];
        stack_.pop_back();
        continue;
      }
      const uint32_t k = frame.next_k++;
      if (++nodes > node_budget) {
        counters_.nodes_visited = nodes;
        if (stats_ != nullptr) *stats_ = counters_;
        return Status::ResourceExhausted(
            "OPQ enumeration exceeded node budget of " +
            std::to_string(options_.node_budget));
      }
      const double unit_cost = frame.unit_cost + cost_per_task[k - 1];
      const double log_weight = frame.log_weight + log_weights[k - 1];
      const bool satisfied = log_weight >= key_;

      // Witness shortcut: when this frame was pushed it cached the
      // cheapest frontier unit cost among elements with lcm' <= frame.lcm
      // (kNoWitness if none existed). Such an element also has
      // lcm' <= every child LCM, so any child at least as expensive is
      // dominated WITHOUT computing its LCM (no gcd) or searching the
      // frontier -- and dominated fringe children are the bulk of every
      // enumeration. A hit decides exactly what the full check below
      // would (the witness, or whatever later evicted it, is in the
      // frontier both builders share); misses -- a stale cache or a
      // dominator whose LCM lies strictly between frame.lcm and the
      // child's -- simply fall through to the exact check. Sub-threshold
      // nodes with pruning disabled must still descend, so the shortcut
      // is gated exactly like the checks below -- which makes `satisfied`
      // steer this branch, and the key interval must hold it, exactly when
      // pruning is disabled.
      if ((options_.enable_partial_pruning || satisfied) &&
          frame.witness_uc <= unit_cost) {
        if (!options_.enable_partial_pruning) hi = std::min(hi, log_weight);
        ++counters_.nodes_pruned_dominated;
        continue;
      }
      const uint64_t lcm = fast_lcm(frame.lcm, k);
      const size_t first = LowerBoundLcmLe(lcm);
      const bool dominated =
          first < frontier_.size() && frontier_[first].unit_cost <= unit_cost;

      if (options_.enable_partial_pruning && dominated) {
        ++counters_.nodes_pruned_dominated;
        continue;
      }
      // Every node that gets here is judged against the key.
      if (satisfied) {
        hi = std::min(hi, log_weight);
        if (!dominated) {
          ++counts_[k - 1];
          Insert(lcm, unit_cost, log_weight);
          --counts_[k - 1];
        } else {
          ++counters_.nodes_pruned_dominated;
        }
        // No descent: any superset is dominated by this element itself.
      } else {
        // Descend; the binary search above doubles as the child frame's
        // witness lookup (`first` indexes the cheapest element with
        // lcm' <= the child's own LCM).
        lo = std::max(lo, log_weight);
        ++counts_[k - 1];
        const double witness_uc = first < frontier_.size()
                                      ? frontier_[first].unit_cost
                                      : kNoWitness;
        stack_.push_back(
            Frame{k, k, lcm, unit_cost, log_weight, witness_uc});
      }
    }
    counters_.nodes_visited = nodes;
    if (stats_ != nullptr) *stats_ = counters_;
    interval_ = OpqKeyInterval{lo, hi};
    return Status::OK();
  }

  const OpqKeyInterval& interval() const { return interval_; }

  std::vector<Cand> TakeQueue() {
    // Rebuild the Cand representation FinalizeOpq expects; the frontier is
    // already LCM-descending so this is a straight copy.
    std::vector<Cand> queue;
    queue.reserve(frontier_.size());
    for (Elem& e : frontier_) {
      Cand cand;
      cand.counts = std::move(e.counts);
      cand.lcm = e.lcm;
      cand.unit_cost = e.unit_cost;
      cand.log_weight = e.log_weight;
      queue.push_back(std::move(cand));
    }
    return queue;
  }

 private:
  // One DFS level: the partial combination built by pushing `added_k`
  // onto the parent, with `next_k` the cardinality to try next.
  struct Frame {
    uint32_t next_k;
    uint32_t added_k;  // 0 for the root (nothing to undo on pop)
    uint64_t lcm;
    double unit_cost;
    double log_weight;
    // Cheapest frontier unit cost among elements with lcm' <= lcm at the
    // time this frame was pushed; +inf when no such element existed. A
    // sound (possibly stale, never wrong) dominance witness for every
    // child of this frame.
    double witness_uc;
  };

  // A frontier element; the array is sorted by lcm strictly descending,
  // which (being a Pareto front) makes unit_cost strictly ascending.
  struct Elem {
    uint64_t lcm;
    double unit_cost;
    double log_weight;
    std::vector<uint32_t> counts;
  };

  // First frontier index whose lcm <= `lcm` (the array descends).
  size_t LowerBoundLcmLe(uint64_t lcm) const {
    return static_cast<size_t>(
        std::lower_bound(frontier_.begin(), frontier_.end(), lcm,
                         [](const Elem& e, uint64_t value) {
                           return e.lcm > value;
                         }) -
        frontier_.begin());
  }

  // Inserts the current counts_ as a frontier element, evicting the
  // contiguous run it dominates. Caller guarantees non-dominance, so
  // every element with lcm' == lcm is strictly costlier and sits inside
  // the evicted range -- order and strictness invariants are preserved.
  void Insert(uint64_t lcm, double uc, double log_weight) {
    const size_t end = LowerBoundLcmLe(lcm);  // first with lcm' <= lcm
    const size_t end_ge = static_cast<size_t>(
        std::lower_bound(frontier_.begin() + end, frontier_.end(), lcm,
                         [](const Elem& e, uint64_t value) {
                           return e.lcm >= value;
                         }) -
        frontier_.begin());  // first with lcm' < lcm
    // Evict elements dominated by the newcomer: lcm' >= lcm and uc' >= uc.
    // Unit cost ascends over [0, end_ge), so they are the run [lo, end_ge).
    const size_t lo = static_cast<size_t>(
        std::lower_bound(frontier_.begin(), frontier_.begin() + end_ge, uc,
                         [](const Elem& e, double value) {
                           return e.unit_cost < value;
                         }) -
        frontier_.begin());
    Elem elem{lcm, uc, log_weight, counts_};
    if (lo < end_ge) {
      frontier_[lo] = std::move(elem);
      frontier_.erase(frontier_.begin() + lo + 1,
                      frontier_.begin() + end_ge);
    } else {
      frontier_.insert(frontier_.begin() + lo, std::move(elem));
    }
    ++counters_.insertions;
  }

  const BinProfile& profile_;
  const double key_;
  const OpqBuildOptions& options_;
  OpqBuildStats* stats_;
  std::vector<uint32_t> counts_;
  std::vector<Frame> stack_;
  std::vector<Elem> frontier_;
  OpqBuildStats counters_;
  OpqKeyInterval interval_;
};

Result<Combination> ToCombination(const Cand& cand,
                                  const BinProfile& profile) {
  Combination::Parts parts;
  for (uint32_t l = 1; l <= profile.max_cardinality(); ++l) {
    if (cand.counts[l - 1] > 0) {
      parts.emplace_back(l, cand.counts[l - 1]);
    }
  }
  return Combination::Create(std::move(parts), profile);
}

// Shared post-processing: Combination conversion and the Definition 4
// ordering. Both builders funnel through here so they can only differ in
// how they enumerate, never in what a queue looks like.
//
// A successful build always holds an LCM-1 element, which is what lets
// Algorithm 3 make progress: the DFS visits the all-b1 chain {b1},
// {2 x b1}, ... before anything else; the chain's first satisfied node is
// inserted into a still-empty frontier (nothing can dominate it), with
// LCM 1; and an element with LCM 1 is only ever evicted by a newcomer of
// LCM <= 1. Nothing here reads the threshold, so the queue depends on the
// enumeration's judgments alone -- the premise of the key interval.
Result<OptimalPriorityQueue> FinalizeOpq(std::vector<Cand> cands,
                                         const BinProfile& profile,
                                         double theta,
                                         const OpqKeyInterval& interval) {
  if (std::none_of(cands.begin(), cands.end(),
                   [](const Cand& c) { return c.lcm == 1; })) {
    return Status::Internal("OPQ has no LCM-1 element");
  }
  std::vector<Combination> elements;
  elements.reserve(cands.size());
  for (const Cand& cand : cands) {
    SLADE_ASSIGN_OR_RETURN(Combination c, ToCombination(cand, profile));
    elements.push_back(std::move(c));
  }

  // Condition (1) of Definition 4: descending LCM. Dominance removal makes
  // unit cost ascend along the same order.
  std::sort(elements.begin(), elements.end(),
            [](const Combination& a, const Combination& b) {
              if (a.lcm() != b.lcm()) return a.lcm() > b.lcm();
              return a.unit_cost() < b.unit_cost();
            });
  return OptimalPriorityQueue(std::move(elements), theta, interval);
}

Status ValidateThreshold(double t) {
  if (!(t > 0.0 && t < 1.0)) {
    return Status::InvalidArgument(
        "OPQ threshold must be in (0, 1), got " + std::to_string(t));
  }
  return Status::OK();
}

}  // namespace

OptimalPriorityQueue::OptimalPriorityQueue(std::vector<Combination> elements,
                                           double theta,
                                           OpqKeyInterval interval)
    : elements_(std::move(elements)),
      theta_(theta),
      key_interval_(interval) {}

size_t OptimalPriorityQueue::EstimatedBytes() const {
  size_t bytes = sizeof(*this) + elements_.capacity() * sizeof(Combination);
  for (const Combination& c : elements_) {
    bytes += c.parts().capacity() * sizeof(Combination::Parts::value_type);
  }
  return bytes;
}

std::string OptimalPriorityQueue::ToString() const {
  std::string out = "OPQ (theta=" + std::to_string(theta_) + ")\n";
  for (const Combination& c : elements_) {
    out += "  " + c.ToString() + "\n";
  }
  return out;
}

Result<OptimalPriorityQueue> BuildOpq(const BinProfile& profile, double t,
                                      const OpqBuildOptions& options,
                                      OpqBuildStats* stats) {
  SLADE_RETURN_NOT_OK(ValidateThreshold(t));
  FastEnumerator enumerator(profile, OpqDecisionKey(t), options, stats);
  SLADE_RETURN_NOT_OK(enumerator.Run());
  return FinalizeOpq(enumerator.TakeQueue(), profile, LogReduction(t),
                     enumerator.interval());
}

Result<OptimalPriorityQueue> BuildOpqReference(const BinProfile& profile,
                                               double t,
                                               const OpqBuildOptions& options,
                                               OpqBuildStats* stats) {
  SLADE_RETURN_NOT_OK(ValidateThreshold(t));
  ReferenceEnumerator enumerator(profile, OpqDecisionKey(t), options, stats);
  SLADE_RETURN_NOT_OK(enumerator.Run());
  return FinalizeOpq(enumerator.TakeQueue(), profile, LogReduction(t),
                     enumerator.interval());
}

}  // namespace slade
