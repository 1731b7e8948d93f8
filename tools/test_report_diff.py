#!/usr/bin/env python3
"""Self-test for tools/report_diff.py.

Run directly (python3 tools/test_report_diff.py) or via the
`report_diff_selftest` ctest.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import report_diff  # noqa: E402


def report(seconds: float, misses: int, optimization: int,
           schema: str = "mayo.run_report/1") -> dict:
    return {
        "schema": schema,
        "label": "t",
        "obs_enabled": True,
        "phases": {"verification": {"seconds": seconds, "calls": 5}},
        "counters": {"circuits.design_context.misses": misses,
                     "sim.dc.solves": 100},
        "evaluations": {"optimization": optimization, "verification": 10,
                        "constraint": 0, "cache_hits": 3},
        "optimizer": None,
    }


class ReportDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name: str, text: str) -> Path:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return path

    def run_main(self, *args: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = report_diff.main(list(args))
        return code, out.getvalue(), err.getvalue()

    def test_extracts_the_last_report_from_surrounding_text(self):
        text = ("iteration table {not json}\n" +
                json.dumps(report(1.0, 1, 1)) + "\nmore text\n" +
                json.dumps(report(2.0, 2, 2), indent=2) + "\n")
        self.assertEqual(report_diff.extract_report(text)["phases"]
                         ["verification"]["seconds"], 2.0)

    def test_text_without_a_report_is_an_error(self):
        with self.assertRaises(ValueError):
            report_diff.extract_report('{"schema": "other/1"} plain')

    def test_lists_only_changed_rows(self):
        rows = report_diff.diff(report(2.0, 262, 5621),
                                report(1.0, 322, 5330))
        by_name = {r[0]: r for r in rows}
        self.assertEqual(set(by_name), {
            "phase.verification.seconds",
            "counter.circuits.design_context.misses",
            "evaluations.optimization"})
        name, before, after, delta, ratio = \
            by_name["counter.circuits.design_context.misses"]
        self.assertEqual((before, after, delta), (262, 322, 60))
        self.assertAlmostEqual(ratio, 322 / 262)
        self.assertEqual(by_name["phase.verification.seconds"][4], 0.5)

    def test_rows_keep_report_order(self):
        before = report(1.0, 1, 1)
        after = report(2.0, 2, 2)
        after["phases"]["verification"]["calls"] = 6
        self.assertEqual([r[0] for r in report_diff.diff(before, after)], [
            "phase.verification.seconds", "phase.verification.calls",
            "evaluations.optimization",
            "counter.circuits.design_context.misses"])
        self.assertEqual(report_diff.diff(before, before), [])

    def test_missing_rows_and_zero_bases(self):
        before = report(0.0, 0, 1)
        after = report(1.0, 4, 1)
        after["counters"]["new.counter"] = 7
        rows = {r[0]: r for r in report_diff.diff(before, after)}
        self.assertIsNone(rows["counter.circuits.design_context.misses"][4])
        self.assertEqual(rows["counter.new.counter"][1:],
                         (None, 7, None, None))
        text = report_diff.render(list(rows.values()))
        self.assertIn("new.counter", text)

    def test_command_line(self):
        a = self.write("a.json", json.dumps(report(2.0, 262, 5621)))
        b = self.write("b.txt", "--- run ---\n" +
                       json.dumps(report(1.0, 262, 5330), indent=2))
        code, out, _ = self.run_main(str(a), str(b))
        self.assertEqual(code, 0)
        self.assertIn("evaluations.optimization", out)
        self.assertIn("-291", out)
        self.assertNotIn("design_context", out)  # unchanged
        self.assertTrue(out.startswith("name "))

    def test_schema_mismatch_and_missing_report_exit_2(self):
        a = self.write("a.json", json.dumps(report(1.0, 1, 1)))
        b = self.write("b.json", json.dumps(
            report(1.0, 1, 1, schema="mayo.run_report/2")))
        c = self.write("c.json", "no report here")
        self.assertEqual(self.run_main(str(a), str(b))[0], 2)
        code, _, err = self.run_main(str(a), str(c))
        self.assertEqual(code, 2)
        self.assertIn("no mayo.run_report", err)


if __name__ == "__main__":
    unittest.main()
