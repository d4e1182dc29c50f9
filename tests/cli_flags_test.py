#!/usr/bin/env python3
"""Exit-code tests for slade_cli's flag and CSV input parsing.

Bad numeric flags must fail with exit code 1 before any work starts:
trailing garbage, out-of-range values, NaN and infinity. So must plan and
profile CSV cells too wide for their 32-bit fields. Valid runs of the
same subcommands must still exit 0. Inputs are written into a temporary
directory.

  python3 tests/cli_flags_test.py path/to/slade_cli
"""

import os
import subprocess
import sys
import tempfile
import unittest

CLI = None  # set from the command line in __main__

TIMED_WORKLOAD = ("arrival_ms,requester,task,threshold\n"
                  "0,alice,0,0.9\n0,alice,0,0.85\n2,bob,0,0.92\n"
                  "5,alice,0,0.88\n")


class CliFlagsTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.profile = os.path.join(cls.tmp.name, "profile.csv")
        cls.workload = os.path.join(cls.tmp.name, "timed.csv")
        with open(cls.workload, "w") as f:
            f.write(TIMED_WORKLOAD)
        code, output = cls.run_cli("profile", "--dataset", "jelly",
                                   "--max-cardinality", "10", "--out",
                                   cls.profile)
        if code != 0:
            raise RuntimeError("profile run failed:\n" + output)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    @staticmethod
    def run_cli(*args):
        done = subprocess.run([CLI, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=60)
        return done.returncode, done.stdout

    def assertExit(self, expected, *args):
        code, output = self.run_cli(*args)
        self.assertEqual(code, expected, f"{' '.join(args)}\n{output}")

    def profile_with(self, cardinality):
        return ("profile", "--dataset", "jelly", "--max-cardinality",
                cardinality, "--out",
                os.path.join(self.tmp.name, "rejected.csv"))

    def stream_with(self, *flags):
        return ("stream", "--profile", self.profile, "--workload",
                self.workload, *flags)

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def test_valid_profile_run_succeeds(self):
        self.assertExit(0, *self.profile_with("8"))

    def test_valid_stream_run_succeeds(self):
        self.assertExit(0, *self.stream_with("--max-delay-ms", "5",
                                             "--max-pending-submissions",
                                             "2"))

    def test_profile_cardinality_with_trailing_garbage_fails(self):
        self.assertExit(1, *self.profile_with("12x"))

    def test_profile_cardinality_zero_fails(self):
        self.assertExit(1, *self.profile_with("0"))

    def test_serve_loop_nan_spammer_fraction_fails(self):
        self.assertExit(1, "serve-loop", "--dataset", "jelly", "--workload",
                        self.workload, "--rounds", "1", "--spammers", "nan")

    def test_stream_nan_delay_fails(self):
        self.assertExit(1, *self.stream_with("--max-delay-ms", "nan"))

    def test_stream_infinite_delay_fails(self):
        self.assertExit(1, *self.stream_with("--max-delay-ms", "inf"))

    def test_stream_negative_delay_fails(self):
        self.assertExit(1, *self.stream_with("--max-delay-ms", "-1"))

    def test_solve_plan_round_trips_through_validate(self):
        plan = os.path.join(self.tmp.name, "solved.csv")
        task = ("--homogeneous", "1000,0.9")
        self.assertExit(0, "solve", "--profile", self.profile, *task,
                        "--solver", "opq-extended", "--out", plan)
        self.assertExit(0, "validate", "--profile", self.profile, "--plan",
                        plan, *task)

    def test_validate_plan_values_beyond_32_bits_fail(self):
        # Each row wraps to the feasible plan row "1,40,0" if truncated.
        for row in ("4294967297,40,0", "1,4294967336,0", "1,40,4294967296"):
            with self.subTest(row=row):
                plan = self.write("wide_plan.csv",
                                  "cardinality,copies,tasks\n" + row + "\n")
                self.assertExit(1, "validate", "--profile", self.profile,
                                "--plan", plan, "--homogeneous", "1,0.9")

    def test_opq_profile_cardinality_beyond_32_bits_fails(self):
        profile = self.write("wide_profile.csv",
                             "cardinality,confidence,cost\n"
                             "4294967297,0.9,0.1\n")
        self.assertExit(1, "opq", "--profile", profile, "--threshold", "0.9")


if __name__ == "__main__":
    CLI = sys.argv.pop(1)
    unittest.main()
