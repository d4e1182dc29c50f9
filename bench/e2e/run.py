#!/usr/bin/env python3
"""End-to-end benchmark for SLADE serving and batch decomposition.

Builds the program and the driver from this checkout (Release, into
.bench_build/), runs the named workloads, checks every answer, and prints
every metric with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 bench/e2e/run.py [--workload W] [--seed S] [--seconds T]
                           [--trace [0|1]] [--repeat N [--out FILE]]
  python3 bench/e2e/run.py compare A.json B.json
  python3 bench/e2e/run.py --self-test

Without --workload every workload runs in turn. --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes
.bench_build/e2e/trace-<workload>.json. --repeat N runs each workload N
times on seeds S, S+1, ... and reports each metric's median and quartiles
(added to the runs already in --out FILE, if any); compare applies
BENCHMARK.json's bounds to two such files. See README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
OUT_DIR = BUILD / "e2e"
DRIVER = CMAKE_DIR / "e2e_driver"
CLI = CMAKE_DIR / "slade" / "slade_cli"
NO_FSYNC_LIB = CMAKE_DIR / "libe2e_no_fsync.so"
WORKLOADS = ["serve-plain", "serve-durable", "stream-fair", "batch-pooled"]
RUN_TIMEOUT_S = 170
# Host steal (percent of the machine's CPU time during a run) from which a
# run counts as disturbed and is measured again. In 40 runs on the shared
# 4-vCPU box, 32 saw 0.1-2.8%; serve-plain's p99 rose by 70% at 3.8% and
# tenfold at 10-17%.
STEAL_LIMIT = 3.0
MAX_ATTEMPTS = 3
# Judged on medians alone: a set-up takes milliseconds, and its spread
# (10-40% on a shared virtual machine) reflects the host more than the
# program.
MEDIAN_ONLY = {"setup_s"}
# A gain is claimed only over at least this many (parent, change) pairs.
MIN_PAIRS = 10


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    with open(spec_path) as f:
        return json.load(f)


def build():
    """Configures (Release) and builds slade_cli, e2e_driver, e2e_no_fsync."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no SLADE source tree at {ROOT}: the benchmark builds the "
             "program from source")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
                fail(f"cmake configure failed; see {log_path}")
        cache = (CMAKE_DIR / "CMakeCache.txt").read_text()
        build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        if not build_type or build_type.group(1) != "Release":
            fail("refusing to measure a non-Release build "
                 f"(CMAKE_BUILD_TYPE={build_type and build_type.group(1)})")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
               "--target", "e2e_driver", "e2e_no_fsync", "slade_cli"]
        if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
            fail(f"build failed; see {log_path}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)


def run_driver(args, timeout=RUN_TIMEOUT_S):
    """Runs the driver in its own process group; returns (code, lines).

    Whatever the driver leaves behind (a server child, if it crashed) is
    killed and waited for before this returns.
    """
    proc = subprocess.Popen([str(DRIVER)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = ""
        proc.kill()
        proc.communicate()
        print(f"run.py: driver timed out after {timeout:.0f} s",
              file=sys.stderr)
    finally:
        reap_group(proc.pid)
    return proc.returncode, out.splitlines()


def reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def host_steal(lines):
    """The driver's report of CPU time the host took away, in percent."""
    for line in lines:
        match = re.match(r"# host steal: ([0-9.]+)%", line)
        if match:
            return float(match.group(1))
    return 0.0


def run_workload(workload, seed, seconds, trace):
    """One measured run: (exit code, note lines, result dict or None).

    A run the host disturbed -- steal of STEAL_LIMIT % or more, or a load
    generator that fell behind its schedule (driver exit 2) -- is measured
    again, up to MAX_ATTEMPTS runs while the time cap leaves room for one
    more, and the run with the least steal is reported. The criterion is
    the host's, never the program's numbers, so a slower program is not
    measured more kindly. A wrong answer or a failed run is reported at
    once. A late generator in the reported run still passes, with a
    warning: the lateness belongs to the host, and loadgen.lag_p99_ms
    keeps it.
    """
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--cli", str(CLI), "--no-fsync-lib", str(NO_FSYNC_LIB),
            "--out-dir", str(OUT_DIR)]
    started = time.time()
    best = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        attempt_started = time.time()
        code, lines = run_driver(args, RUN_TIMEOUT_S - (attempt_started -
                                                        started))
        steal = host_steal(lines)
        if code not in (0, 2):
            best = (code, lines)
            break
        if best is None or steal < host_steal(best[1]):
            best = (code, lines)
        if code == 0 and steal < STEAL_LIMIT:
            break
        took = time.time() - attempt_started
        if attempt == MAX_ATTEMPTS or time.time() - started + took > \
                RUN_TIMEOUT_S:
            break
        print(f"run.py: {workload}: host disturbed the run ({steal:.1f}% "
              f"steal{', load generator late' if code == 2 else ''}); "
              "measuring again", file=sys.stderr)
    code, lines = best
    if code == 2:
        print(f"run.py: {workload}: load generator ran more than 1 ms late "
              "at p99; the host was busy", file=sys.stderr)
        code = 0
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return code, lines[:-1] if result else lines, result


def check_metrics(spec, result, trace, workload):
    """The driver must report exactly BENCHMARK.json's metrics and units."""
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if wanted != got:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"expected {sorted(wanted.items())}, got {sorted(got.items())}")


def print_table(workload, result):
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:>18.6g} {m['unit']}")


# ----------------------------------------------------------- statistics

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a, b, bound, better, judge_spread=True):
    """Compares two sets of runs of one (metric, workload) pair.

    worse: B's median is worse than A's by more than the bound.
    unresolved: a set's quartile spread exceeds the bound (unless
    judge_spread is false), unless every run of B beats every run of A.
    better: there are at least 10 pairs, B wins at least 9 in 10 of them
    and the medians differ by more than A's quartile distance (with fewer
    pairs, two sets of one commit read "better" by chance too often).
    Otherwise same.
    """
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    rel = sign * (mb - ma) / abs(ma) if ma else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if judge_spread and max(spread(a), spread(b)) > bound:
        return "better" if all_better else "unresolved"
    if rel < -bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    q1, _, q3 = quartiles(a)
    if (rel > 0 and len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(mb - ma) > q3 - q1):
        return "better"
    return "same"


def compare(path_a, path_b):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    counts = {}
    print(f"{'workload':14s} {'metric':20s} {'median A':>14s} "
          f"{'median B':>14s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        for name, m in bounds.items():
            va = a["workloads"][workload].get(name, {}).get("values")
            vb = b["workloads"][workload].get(name, {}).get("values")
            if not va or not vb:
                continue
            v = verdict(va, vb, m["bound"], m["better"],
                        name not in MEDIAN_ONLY)
            counts[v] = counts.get(v, 0) + 1
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            print(f"{workload:14s} {name:20s} {ma:14.6g} {mb:14.6g} "
                  f"{change:+8.2%} {m['bound']:6.3f}  {v}")
    print(json.dumps({"verdicts": counts}))
    return 0 if not counts.get("worse") and not counts.get("unresolved") else 1


# ------------------------------------------------------------- commands

def run_once(spec, workloads, seed, seconds, trace):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst_code = 0
    for workload in workloads:
        code, notes, result = run_workload(workload, seed, seconds, trace)
        for line in notes:
            print(line)
        if result is None:
            fail(f"{workload}: driver exited {code} without a result", 3)
        check_metrics(spec, result, trace, workload)
        worst_code = max(worst_code, code)
        if len(workloads) == 1:
            print(json.dumps(result))
            return code
        print_table(workload, result)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return worst_code


def run_repeat(spec, workloads, seed, seconds, trace, repeat, out):
    """Runs each workload `repeat` times on seeds seed, seed+1, ...

    An existing `out` file keeps its runs and gets these added, so the two
    sides of a comparison can be collected alternately into two files.
    """
    report = {"seconds": seconds, "trace": trace, "seeds": {},
              "workloads": {}}
    if out and os.path.isfile(out):
        with open(out) as f:
            report = json.load(f)
        if report["seconds"] != seconds or report["trace"] != trace:
            fail(f"{out} holds runs of another --seconds or --trace", 2)
    worst_code = 0
    attempted = failed = 0
    correct = True
    for workload in workloads:
        series = report["workloads"].setdefault(workload, {})
        report["seeds"].setdefault(workload, []).extend(
            seed + i for i in range(repeat))
        for i in range(repeat):
            code, notes, result = run_workload(workload, seed + i, seconds,
                                               trace)
            if result is None:
                fail(f"{workload} seed {seed + i}: driver exited {code} "
                     "without a result", 3)
            check_metrics(spec, result, trace, workload)
            worst_code = max(worst_code, code)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                entry = series.setdefault(name, {"unit": m["unit"],
                                                 "values": []})
                entry["values"].append(m["value"])
        runs = len(next(iter(series.values()))["values"])
        print(f"== {workload}: {runs} runs")
        for name, entry in series.items():
            q1, q2, q3 = quartiles(entry["values"])
            print(f"   {name:34s} median {q2:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread(entry['values']):7.2%} "
                  f"{entry['unit']}")
    if out:
        with open(out, "w") as f:
            json.dump(report, f, indent=1)
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {}}
    for workload, series in report["workloads"].items():
        for name, entry in series.items():
            summary["metrics"][f"{workload}.{name}"] = {
                "value": statistics.median(entry["values"]),
                "unit": entry["unit"]}
    print(json.dumps(summary))
    return worst_code


def self_test(spec):
    started = time.time()
    ok = True

    def check(condition, what):
        nonlocal ok
        print(f"{'ok  ' if condition else 'FAIL'} {what}")
        ok &= bool(condition)

    for workload in WORKLOADS:
        digests = []
        for seed in (7, 7, 8):
            code, lines = run_driver(["--digest", "--workload", workload,
                                      "--seed", str(seed)])
            digests.append(lines[-1] if code == 0 and lines else None)
        check(digests[0] is not None and digests[0] == digests[1],
              f"{workload}: same seed, byte-identical request stream")
        check(digests[0] != digests[2],
              f"{workload}: another seed, another request stream")
    code, lines = run_driver(["--check-oracle", "--seed", "7"])
    check(code == 0, "reference costs equal SolveBatchSequential per "
          "submission (" + (lines[-1] if lines else "no output") + ")")
    for workload in WORKLOADS:
        code, notes, result = run_workload(workload, 7, 1, False)
        check(code == 0 and result is not None and result["correct"],
              f"{workload}: 1 s smoke (exit {code}, "
              f"{result and result['attempted']} answers checked)")
        if result is not None:
            check_metrics(spec, result, False, workload)
    elapsed = time.time() - started
    print(json.dumps({"self_test": "pass" if ok else "fail",
                      "seconds": round(elapsed, 1)}))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare A.json B.json", 2)
        return compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.self_test:
        return self_test(spec)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if seconds <= 0:
        fail("--seconds must be positive", 2)
    workloads = [args.workload] if args.workload else WORKLOADS
    trace = args.trace == "1"
    if args.repeat > 1 or args.out:
        return run_repeat(spec, workloads, args.seed, seconds, trace,
                          args.repeat, args.out)
    return run_once(spec, workloads, args.seed, seconds, trace)


if __name__ == "__main__":
    sys.exit(main())
