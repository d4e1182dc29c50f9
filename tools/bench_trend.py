#!/usr/bin/env python3
"""Compare freshly produced BENCH_*.json files against committed baselines.

Each BENCH_<name>.json (written by bench/bench_util.h's BenchJsonWriter) is
a flat list of records; string fields identify a configuration and numeric
fields are its measurements. This tool pairs fresh and baseline records by
their string fields and prints a delta table, flagging regressions on
metrics where bigger is worse (latency, wall time, eviction/rejected rates)
and improvements where bigger is better (hit rate, throughput).

Two gating knobs, independent of the --threshold report filter:
  --strict            exit 1 on any regression beyond --threshold
  --max-regress-pct P exit 1 when a regression reaches P percent -- the
                      blocking-CI mode: small drifts print, runaway
                      regressions fail the PR. Pick P well above runner
                      timing noise (the CI gate uses 200).

A regression is scored by how many times worse the metric got, minus one:
(fresh - base) / base where bigger is worse, base / fresh - 1 where bigger
is better. Both read +100% for "twice as bad" and +200% for "three times
as bad", and a throughput collapse to zero scores infinite -- a plain
relative drop could never exceed 100% and so never trip the gate.

A gated (non-neutral) baseline field that a produced BENCH_*.json no
longer carries -- the field itself, or its whole record -- is reported as
MISSING and scored as an infinite regression, so a bench that silently
stops emitting a metric cannot pass the gate. A baseline file the run did
not produce at all is skipped.

Usage:
  tools/bench_trend.py [--fresh DIR] [--baseline DIR]
                       [--threshold PCT] [--strict] [--max-regress-pct PCT]
"""

import argparse
import collections
import glob
import json
import math
import os
import sys

# Substrings that classify a numeric field. Bigger-is-worse wins ties so a
# hypothetical "latency_rate" is treated conservatively.
WORSE_IF_BIGGER = ("latency", "seconds", "wall", "eviction", "rejected",
                   "shed", "blocked", "bytes", "dropped")
BETTER_IF_BIGGER = ("hit_rate", "per_second", "per_fsync", "throughput",
                    "delivered", "speedup", "accuracy")


def classify(field):
    name = field.lower()
    if any(s in name for s in WORSE_IF_BIGGER):
        return "worse-if-bigger"
    if any(s in name for s in BETTER_IF_BIGGER):
        return "better-if-bigger"
    return "neutral"


def regression_pct(kind, base, fresh):
    """How much worse `fresh` is than `base`, in percent (<= 0: not worse)."""
    if kind == "worse-if-bigger":
        return (fresh - base) / (abs(base) if base != 0 else 1.0) * 100.0
    if kind == "better-if-bigger":
        if fresh >= base:
            return 0.0
        return math.inf if fresh <= 0 else (base / fresh - 1.0) * 100.0
    return 0.0


def record_key(record):
    """Identity of a record: its string fields, in name order."""
    return tuple(sorted((k, v) for k, v in record.items()
                        if isinstance(v, str)))


def load(path):
    with open(path) as f:
        data = json.load(f)
    return data.get("bench", os.path.basename(path)), data.get("records", [])


def format_row(cols, widths):
    return "  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", default=".",
                        help="directory with freshly produced BENCH_*.json")
    parser.add_argument("--baseline", default="bench/baselines",
                        help="directory with committed baseline BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="flag deltas beyond this percentage")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any regression exceeds threshold")
    parser.add_argument("--max-regress-pct", type=float, default=None,
                        help="exit 1 when any regression exceeds this "
                             "percentage (the blocking-CI gate)")
    args = parser.parse_args()

    baselines = sorted(glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not baselines:
        print(f"bench_trend: no baselines under {args.baseline}; nothing to "
              "compare")
        return 0

    rows = []
    regressions = 0
    blocking = []  # (bench, config, metric, delta_pct) beyond the gate
    compared_files = 0
    for baseline_path in baselines:
        fresh_path = os.path.join(args.fresh, os.path.basename(baseline_path))
        if not os.path.exists(fresh_path):
            print(f"bench_trend: {os.path.basename(baseline_path)} not "
                  "produced by this run; skipping")
            continue
        compared_files += 1
        bench, base_records = load(baseline_path)
        _, fresh_records = load(fresh_path)
        # Several records can share one string-field identity (a sweep over
        # a numeric knob); the emit order is deterministic, so pair records
        # positionally within each identity group.
        fresh_groups = collections.defaultdict(list)
        for r in fresh_records:
            fresh_groups[record_key(r)].append(r)
        base_groups = collections.defaultdict(list)
        for r in base_records:
            base_groups[record_key(r)].append(r)
        pairs = []
        for key, group in base_groups.items():
            for position, base in enumerate(group):
                fresh_group = fresh_groups.get(key, [])
                # A record no longer produced pairs with an empty one, so
                # each of its gated fields reads MISSING below.
                fresh = (fresh_group[position]
                         if position < len(fresh_group) else {})
                label = " ".join(v for _, v in key) or "(default)"
                if len(group) > 1:
                    label += f" #{position}"
                pairs.append((label, base, fresh))
        for config, base, fresh in pairs:
            for field, base_value in sorted(base.items()):
                if not isinstance(base_value, (int, float)):
                    continue
                fresh_value = fresh.get(field)
                if not isinstance(fresh_value, (int, float)):
                    if classify(field) != "neutral":
                        regressions += 1
                        if args.max_regress_pct is not None:
                            blocking.append((bench, config, field, math.inf))
                        rows.append([bench, config, field,
                                     f"{base_value:.6g}", "-", "-",
                                     "MISSING"])
                    continue
                if base_value == 0 and fresh_value == 0:
                    continue
                denom = abs(base_value) if base_value != 0 else 1.0
                delta_pct = (fresh_value - base_value) / denom * 100.0
                if abs(delta_pct) < args.threshold:
                    continue
                kind = classify(field)
                verdict = ""
                if kind != "neutral":
                    regress = regression_pct(kind, base_value, fresh_value)
                    verdict = "REGRESSION" if regress > 0 else "improved"
                if verdict == "REGRESSION":
                    regressions += 1
                    if (args.max_regress_pct is not None
                            and regress >= args.max_regress_pct):
                        blocking.append((bench, config, field, regress))
                rows.append([bench, config, field, f"{base_value:.6g}",
                             f"{fresh_value:.6g}", f"{delta_pct:+.1f}%",
                             verdict])

    if not rows:
        print(f"bench_trend: {compared_files} file(s) compared, no deltas "
              f"beyond {args.threshold:.0f}% -- flat")
        return 0

    header = ["bench", "config", "metric", "baseline", "fresh", "delta",
              "verdict"]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    print(format_row(header, widths))
    print(format_row(["-" * w for w in widths], widths))
    for row in rows:
        print(format_row(row, widths))
    print(f"\nbench_trend: {len(rows)} delta(s) beyond "
          f"{args.threshold:.0f}%, {regressions} flagged as regressions")
    if blocking:
        print(f"bench_trend: {len(blocking)} regression(s) reach the "
              f"blocking gate of {args.max_regress_pct:.0f}%:")
        for bench, config, field, regress in blocking:
            print(f"  {bench} | {config} | {field}: {regress:+.1f}% worse")
        return 1
    if args.strict and regressions > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
