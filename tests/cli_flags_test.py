#!/usr/bin/env python3
"""Exit-code tests for slade_cli's flag parsing.

Bad numeric flags must fail with exit code 1 before any work starts:
trailing garbage, out-of-range values, NaN and infinity. Valid runs of the
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


if __name__ == "__main__":
    CLI = sys.argv.pop(1)
    unittest.main()
