#!/usr/bin/env python3
"""Self-test for lock_order.py: the fixtures must produce exactly the
expected graph — the seeded ABBA cycle is detected, a consistent order is
clean, waivers suppress edges, REQUIRES contributes held locks, and the
baseline flags unreviewed new edges."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lock_order  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures", "lock_order")


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lock_order.main(argv)
    return code, out.getvalue(), err.getvalue()


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


class CycleDetection(unittest.TestCase):
    def test_seeded_abba_cycle_is_detected(self) -> None:
        code, out, _ = run([fixture("bad_cycle.cc")])
        self.assertEqual(code, 1)
        self.assertIn("CYCLE", out)
        self.assertIn("Ledger::credit", out)
        self.assertIn("Ledger::debit", out)

    def test_consistent_order_is_clean(self) -> None:
        code, out, err = run(["--print-graph", fixture("good_nested.cc")])
        self.assertEqual(code, 0, out + err)
        self.assertIn("edge Pipeline::intake -> Pipeline::outflow", out)
        self.assertNotIn("CYCLE", out)

    def test_whole_fixture_dir_has_exactly_the_seeded_cycle(self) -> None:
        code, out, _ = run([FIXTURES])
        self.assertEqual(code, 1)
        self.assertEqual(out.count("CYCLE"), 1)
        self.assertIn("Ledger::", out)


class Suppression(unittest.TestCase):
    def test_waiver_breaks_the_cycle(self) -> None:
        code, out, err = run([fixture("waived_cycle.cc")])
        self.assertEqual(code, 0, out + err)

    def test_requires_marks_lock_held(self) -> None:
        code, out, err = run(["--print-graph",
                              fixture("requires_held.cc")])
        self.assertEqual(code, 0, out + err)
        self.assertIn("edge Cache::map_mu -> Cache::stats_mu", out)


class Baseline(unittest.TestCase):
    def test_baseline_roundtrip_and_new_edge_detection(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "baseline.json")
            code, _, err = run(["--write-baseline", base,
                                fixture("good_nested.cc")])
            self.assertEqual(code, 0, err)
            with open(base, encoding="utf-8") as f:
                payload = json.load(f)
            self.assertEqual(payload["edges"],
                             [["Pipeline::intake", "Pipeline::outflow"]])

            # The recorded edge passes against its own baseline...
            code, out, err = run(["--baseline", base,
                                  fixture("good_nested.cc")])
            self.assertEqual(code, 0, out + err)

            # ...and an empty baseline flags it as a new, unreviewed edge.
            with open(base, "w", encoding="utf-8") as f:
                json.dump({"edges": []}, f)
            code, out, _ = run(["--baseline", base,
                                fixture("good_nested.cc")])
            self.assertEqual(code, 1)
            self.assertIn("new lock-order edge", out)

    def test_missing_baseline_is_a_usage_error(self) -> None:
        code, _, err = run(["--baseline", fixture("no_such.json"),
                            fixture("good_nested.cc")])
        self.assertEqual(code, 2)
        self.assertIn("cannot read baseline", err)


class RealTree(unittest.TestCase):
    """The annotated src/ tree: no lock is ever taken while another is
    held, so the graph has no edge (and so no cycle)."""

    SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))

    def test_src_is_acyclic_with_known_edges(self) -> None:
        code, out, err = run(["--print-graph", self.SRC])
        self.assertEqual(code, 0, out + err)
        self.assertNotIn("CYCLE", out)
        self.assertNotIn("edge ", out)
        self.assertIn(" 0 edge(s)", err)

    def test_src_matches_committed_baseline(self) -> None:
        base = os.path.join(HERE, "lock_order_baseline.json")
        code, out, err = run(["--baseline", base, self.SRC])
        self.assertEqual(code, 0, out + err)


if __name__ == "__main__":
    unittest.main()
