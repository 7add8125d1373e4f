#!/usr/bin/env python3
"""Runs bench/check_steps.py on fixture ledgers and results.

Usage: test_check_steps.py PATH/TO/check_steps.py

Each case writes a two-workload ledger (max_ratio 1.10, rss_max_ratio
1.25) and lr_bench-style result lines to a temporary directory, runs the
script and checks its exit code and verdict: counts inside the band pass;
a count above it fails as a regression; a count below ledger / max_ratio
fails as a stale ledger; peak_rss_mb fails above ledger * rss_max_ratio
and passes at any lower reading; a ledger workload without a result, a
result for a workload the ledger lacks and a result with failed instances
all fail.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = None

LEDGER = {
    "seed": 1,
    "max_ratio": 1.10,
    "rss_max_ratio": 1.25,
    "workloads": {
        "alpha": {"repair_steps": 1000, "total_steps": 2000,
                  "peak_rss_mb": 40.0},
        "beta": {"repair_steps": 500, "total_steps": 800,
                 "peak_rss_mb": 20.0},
    },
}


def result_line(repair_steps, total_steps, correct=True, failed=0,
                peak_rss_mb=20.0):
    metrics = {
        "repair_steps": {"value": repair_steps, "unit": "count"},
        "total_steps": {"value": total_steps, "unit": "count"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return json.dumps({"correct": correct, "attempted": 3, "failed": failed,
                       "metrics": metrics})


class CheckStepsTest(unittest.TestCase):
    def run_check(self, results):
        """results: workload -> result line. Returns (exit code, stdout)."""
        with tempfile.TemporaryDirectory() as tmp:
            ledger = os.path.join(tmp, "ledger.json")
            with open(ledger, "w") as handle:
                json.dump(LEDGER, handle)
            args = [sys.executable, SCRIPT, ledger]
            for workload, line in results.items():
                path = os.path.join(tmp, workload + ".json")
                with open(path, "w") as handle:
                    # run.py's build chatter precedes the result line.
                    handle.write("building...\n" + line + "\n")
                args.append(workload + "=" + path)
            run = subprocess.run(args, capture_output=True, text=True)
        return run.returncode, run.stdout

    def test_counts_inside_the_band_pass(self):
        code, out = self.run_check({
            "alpha": result_line(1099, 1820),  # 1.099 and 0.91
            "beta": result_line(500, 800),
        })
        self.assertEqual(code, 0, out)
        self.assertNotIn("FAIL", out)
        self.assertNotIn("STALE", out)

    def test_a_count_over_the_band_fails(self):
        code, out = self.run_check({
            "alpha": result_line(1101, 2000),
            "beta": result_line(500, 800),
        })
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_a_count_under_the_band_fails_as_stale(self):
        code, out = self.run_check({
            "alpha": result_line(1000, 1800),  # 0.9 < 1 / 1.10
            "beta": result_line(500, 800),
        })
        self.assertEqual(code, 1, out)
        self.assertIn("refresh the ledger", out)
        self.assertNotIn("FAIL", out)

    def test_peak_rss_over_its_ratio_fails(self):
        code, out = self.run_check({
            "alpha": result_line(1000, 2000, peak_rss_mb=50.1),  # 1.2525
            "beta": result_line(500, 800),
        })
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_peak_rss_inside_its_ratio_or_lower_passes(self):
        code, out = self.run_check({
            "alpha": result_line(1000, 2000, peak_rss_mb=49.9),  # 1.2475
            "beta": result_line(500, 800, peak_rss_mb=5.0),      # 0.25
        })
        self.assertEqual(code, 0, out)
        self.assertNotIn("FAIL", out)
        self.assertNotIn("STALE", out)

    def test_a_missing_workload_fails(self):
        code, out = self.run_check({"alpha": result_line(1000, 2000)})
        self.assertEqual(code, 1, out)
        self.assertIn("no result for beta", out)

    def test_an_unknown_workload_fails(self):
        code, out = self.run_check({
            "alpha": result_line(1000, 2000),
            "beta": result_line(500, 800),
            "gamma": result_line(1, 1),
        })
        self.assertEqual(code, 1, out)
        self.assertIn("not in the ledger", out)

    def test_failed_instances_fail(self):
        code, out = self.run_check({
            "alpha": result_line(1000, 2000, failed=1),
            "beta": result_line(500, 800),
        })
        self.assertEqual(code, 1, out)
        self.assertIn("unverified success or failed instances", out)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    SCRIPT = sys.argv.pop(1)
    unittest.main()
