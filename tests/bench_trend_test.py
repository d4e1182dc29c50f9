#!/usr/bin/env python3
"""Exit-code tests for tools/bench_trend.py's blocking gate.

Writes synthetic baseline/fresh BENCH_*.json pairs into a temporary
directory and runs the tool on them at CI's --max-regress-pct 200. A
metric three times worse than its baseline must block whichever way it is
oriented; the same factor in the good direction must pass. A gated metric
the fresh run no longer emits must block; a missing neutral one must not.

  python3 tests/bench_trend_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "bench_trend.py")


def write_bench(directory, records):
    with open(os.path.join(directory, "BENCH_synthetic.json"), "w") as f:
        json.dump({"bench": "synthetic", "records": records}, f)


class GateTest(unittest.TestCase):

    def gate(self, field, base, fresh):
        """Exit code of the tool when `field` moves from base to fresh."""
        return self.gate_records([{"mode": "synthetic", field: base}],
                                 [{"mode": "synthetic", field: fresh}])

    def gate_records(self, base_records, fresh_records):
        """Exit code and output of the tool on one baseline/fresh pair."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baseline")
            fresh_dir = os.path.join(tmp, "fresh")
            os.mkdir(base_dir)
            os.mkdir(fresh_dir)
            write_bench(base_dir, base_records)
            write_bench(fresh_dir, fresh_records)
            done = subprocess.run(
                [sys.executable, TOOL, "--baseline", base_dir, "--fresh",
                 fresh_dir, "--max-regress-pct", "200"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            return done.returncode, done.stdout

    def assertGate(self, field, base, fresh, expected):
        code, output = self.gate(field, base, fresh)
        self.assertEqual(code, expected,
                         f"{field}: {base} -> {fresh}\n{output}")

    def test_threefold_throughput_drop_blocks(self):
        self.assertGate("records_per_second", 3000.0, 1000.0, 1)

    def test_threefold_throughput_gain_passes(self):
        self.assertGate("records_per_second", 1000.0, 3000.0, 0)

    def test_halved_throughput_is_below_the_gate(self):
        self.assertGate("records_per_second", 2000.0, 1000.0, 0)

    def test_throughput_collapse_to_zero_blocks(self):
        self.assertGate("records_per_second", 1000.0, 0.0, 1)

    def test_records_per_fsync_is_gated(self):
        self.assertGate("records_per_fsync", 4.2, 1.0, 1)
        self.assertGate("records_per_fsync", 1.0, 4.2, 0)

    def test_threefold_latency_rise_blocks_and_fall_passes(self):
        self.assertGate("admit_latency_us_p50", 10.0, 30.0, 1)
        self.assertGate("admit_latency_us_p50", 30.0, 10.0, 0)

    def test_missing_gated_field_blocks(self):
        code, output = self.gate_records(
            [{"mode": "synthetic", "seconds": 1.0, "aos_seconds": 1.0}],
            [{"mode": "synthetic", "seconds": 1.0}])
        self.assertEqual(code, 1, output)
        self.assertIn("MISSING", output)

    def test_missing_record_blocks(self):
        code, output = self.gate_records(
            [{"mode": "kept", "seconds": 1.0},
             {"mode": "gone", "records_per_second": 1000.0}],
            [{"mode": "kept", "seconds": 1.0}])
        self.assertEqual(code, 1, output)
        self.assertIn("MISSING", output)

    def test_missing_neutral_field_passes(self):
        code, output = self.gate_records(
            [{"mode": "synthetic", "seconds": 1.0, "allocations": 3}],
            [{"mode": "synthetic", "seconds": 1.0}])
        self.assertEqual(code, 0, output)


if __name__ == "__main__":
    unittest.main()
