#!/usr/bin/env python3
"""Self-test for corona_lint: run the lint over the known-bad fixture tree
and assert exactly the expected diagnostics come out (and nothing else).

Run directly (python3 tools/lint/test_corona_lint.py) or via ctest
(corona_lint_selftest).  Dependency-free: unittest only.
"""

from __future__ import annotations

import io
import os
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corona_lint  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")


def lint(*roots: str) -> list[corona_lint.Violation]:
    files = corona_lint.gather_files(list(roots))
    names = corona_lint.collect_unordered_names(files)
    enums = corona_lint.collect_enums(files)
    out: list[corona_lint.Violation] = []
    for path in files:
        out.extend(corona_lint.lint_file(path, names))
        with open(path, encoding="utf-8", errors="replace") as f:
            out.extend(corona_lint.check_dispatch(path, f.read(), enums))
    return out


def keyed(violations: list[corona_lint.Violation]) -> set[tuple[str, int, str]]:
    return {
        (os.path.relpath(v.path, FIXTURES).replace(os.sep, "/"), v.line, v.rule)
        for v in violations
    }


class FixtureTree(unittest.TestCase):
    """The fixture tree produces exactly the expected (file, line, rule) set."""

    def test_expected_diagnostics(self):
        expected = {
            ("src/core/bad_clock.cc", 9, "wall-clock"),
            ("src/core/bad_clock.cc", 11, "wall-clock"),
            ("src/core/bad_random.cc", 8, "raw-random"),
            ("src/core/bad_random.cc", 10, "raw-random"),
            ("src/replica/bad_unordered.h", 15, "unordered-container"),
            ("src/replica/bad_unordered.cc", 9, "unordered-iteration"),
            ("src/sim/bad_float.cc", 5, "float-accum"),
            ("src/serial/bad_thread.cc", 7, "raw-thread"),
            ("src/serial/bad_thread.cc", 7, "raw-mutex"),
            ("src/serial/bad_thread.cc", 10, "raw-thread"),
            ("src/net/bad_raw_mutex.cc", 10, "raw-mutex"),
            ("src/net/bad_raw_mutex.cc", 11, "raw-mutex"),
            ("src/net/bad_raw_mutex.cc", 14, "raw-mutex"),
            ("src/net/bad_raw_mutex.cc", 18, "raw-mutex"),
            ("src/net/bad_net.cc", 9, "unordered-container"),
            ("src/net/bad_net.cc", 12, "raw-random"),
            ("src/net/bad_net.cc", 17, "unordered-iteration"),
            ("src/core/bad_file_io.cc", 10, "raw-file-io"),
            ("src/core/bad_file_io.cc", 12, "raw-file-io"),
            ("src/core/bad_file_io.cc", 13, "raw-file-io"),
            ("src/core/bad_erase.cc", 12, "erase-in-range-for"),
            ("src/core/bad_erase.cc", 18, "erase-in-range-for"),
            ("src/core/bad_dispatch.cc", 7, "dispatch-exhaustiveness"),
            ("src/core/bad_dispatch.cc", 8, "dispatch-exhaustiveness"),
            ("src/core/bad_dispatch.cc", 9, "dispatch-exhaustiveness"),
        }
        self.assertEqual(keyed(lint(FIXTURES)), expected)

    def test_net_transport_may_use_clocks_and_threads(self):
        path = os.path.join(FIXTURES, "src", "net", "clean_transport.cc")
        self.assertEqual(lint(path), [])

    def test_net_still_bans_unordered_and_random(self):
        path = os.path.join(FIXTURES, "src", "net", "bad_net.cc")
        rules = sorted(v.rule for v in lint(path))
        self.assertEqual(
            rules, ["raw-random", "unordered-container", "unordered-iteration"])

    def test_erase_fixture_flags_only_the_bad_loops(self):
        path = os.path.join(FIXTURES, "src", "core", "bad_erase.cc")
        found = sorted((v.line, v.rule) for v in lint(path))
        self.assertEqual(found, [(12, "erase-in-range-for"),
                                 (18, "erase-in-range-for")])

    def test_raw_mutex_fires_in_net_but_waiver_silences(self):
        # src/net/ escapes raw-thread but NOT raw-mutex; the line waiver
        # on the bridge() interop case must be honored.
        path = os.path.join(FIXTURES, "src", "net", "bad_raw_mutex.cc")
        found = sorted((v.line, v.rule) for v in lint(path))
        self.assertEqual(found, [(10, "raw-mutex"), (11, "raw-mutex"),
                                 (14, "raw-mutex"), (18, "raw-mutex")])

    def test_raw_mutex_exempts_sync_header(self):
        # The wrapper header itself is the one sanctioned home of the std
        # primitives.
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            util = os.path.join(tmp, "src", "util")
            os.makedirs(util)
            with open(os.path.join(util, "sync.h"), "w") as f:
                f.write("// lint-file: thread-ok\n"
                        "#pragma once\n"
                        "class Mutex { std::mutex mu_; };\n")
            found = [v for v in lint(os.path.join(tmp, "src"))]
        self.assertEqual(found, [])

    def test_file_io_fixture_flags_only_unwaived_sites(self):
        path = os.path.join(FIXTURES, "src", "core", "bad_file_io.cc")
        found = sorted((v.line, v.rule) for v in lint(path))
        self.assertEqual(found, [(10, "raw-file-io"), (12, "raw-file-io"),
                                 (13, "raw-file-io")])

    def test_file_io_exempts_disk_backend(self):
        # storage/disk/ is the one sanctioned home of raw file I/O.
        path = os.path.join(FIXTURES, "src", "storage", "disk",
                            "clean_disk_io.cc")
        self.assertEqual(lint(path), [])

    def test_file_waiver_covers_whole_file(self):
        path = os.path.join(FIXTURES, "src", "core", "clean_waived.cc")
        self.assertEqual(lint(path), [])

    def test_dispatch_good_and_waived_fixtures_are_clean(self):
        # Lint the fixture tree (so the enum header is in the scanned set)
        # and check the good/waived variants contribute nothing.
        for name in ("good_dispatch.cc", "waived_dispatch.cc"):
            with self.subTest(fixture=name):
                rel = "src/core/" + name
                hits = [k for k in keyed(lint(FIXTURES)) if k[0] == rel]
                self.assertEqual(hits, [])

    def test_dispatch_bad_fixture_details(self):
        msgs = [v.message for v in lint(FIXTURES)
                if v.path.endswith("bad_dispatch.cc")]
        self.assertEqual(len(msgs), 3)
        self.assertTrue(any("kCharlie" in m for m in msgs))
        self.assertTrue(any("stale waiver" in m and "kBravo" in m
                            for m in msgs))
        self.assertTrue(any("kZulu" in m for m in msgs))

    def test_dispatch_required_marker_enforced(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            serial = os.path.join(tmp, "src", "serial")
            core = os.path.join(tmp, "src", "core")
            os.makedirs(serial)
            os.makedirs(core)
            with open(os.path.join(serial, "wire.h"), "w") as f:
                f.write("enum class MsgType { kPing };\n")
            # A role file with no lint-dispatch marker must be flagged.
            with open(os.path.join(core, "server.cc"), "w") as f:
                f.write("void process() {}\n")
            found = [(v.line, v.rule) for v in lint(os.path.join(tmp, "src"))
                     if v.path.endswith("server.cc")]
        self.assertEqual(found, [(1, "dispatch-exhaustiveness")])

    def test_dispatch_file_waiver_silences_rule(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            core = os.path.join(tmp, "src", "core")
            os.makedirs(core)
            with open(os.path.join(core, "wire.h"), "w") as f:
                f.write("enum class FixtureMsg { kAlpha, kBravo };\n")
            with open(os.path.join(core, "partial.cc"), "w") as f:
                f.write("// lint-file: dispatch-ok\n"
                        "// lint-dispatch: FixtureMsg\n"
                        "void f() {}\n")
            found = [v for v in lint(os.path.join(tmp, "src"))
                     if v.path.endswith("partial.cc")]
        self.assertEqual(found, [])

    def test_main_exit_codes_and_output(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = corona_lint.main([FIXTURES])
        self.assertEqual(rc, 1)
        first = stdout.getvalue().splitlines()[0]
        # file:line: [rule] message — the format the acceptance criteria pin.
        self.assertRegex(first, r"^.+:\d+: \[[a-z-]+\] .+$")
        self.assertIn("violation(s)", stderr.getvalue())

    def test_main_clean_tree_exits_zero(self):
        path = os.path.join(FIXTURES, "src", "core", "clean_waived.cc")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = corona_lint.main([path])
        self.assertEqual(rc, 0)


class Mechanics(unittest.TestCase):
    """Unit coverage of the trickier helpers."""

    def test_src_relative_handles_fixture_nesting(self):
        self.assertEqual(
            corona_lint.src_relative("tools/lint/fixtures/src/sim/a.cc"),
            "sim/a.cc",
        )
        self.assertEqual(corona_lint.src_relative("src/core/b.h"), "core/b.h")
        self.assertEqual(corona_lint.src_relative("README.md"), "")

    def test_comments_and_strings_are_not_code(self):
        text = (
            '// std::thread in a comment\n'
            'const char* s = "std::mutex in a string";\n'
            "/* std::chrono::system_clock spanning\n"
            "   a block comment */\n"
        )
        lines = list(corona_lint.logical_lines(text))
        self.assertNotIn("thread", lines[0][2])
        self.assertNotIn("mutex", lines[1][2])
        self.assertNotIn("clock", lines[2][2])

    def test_waiver_parsing(self):
        self.assertEqual(
            corona_lint.waivers_on("// knobs; lint: float-ok thread-ok"),
            {"float", "thread"},
        )
        self.assertEqual(corona_lint.waivers_on("// lint-file: clock-ok"), set())
        self.assertEqual(corona_lint.file_waivers("// lint-file: clock-ok"),
                         {"clock"})

    def test_erase_tracking_respects_nesting_and_scope(self):
        import tempfile
        src = (
            "void f(std::map<int, int>& outer, std::vector<int>& inner) {\n"
            "  for (auto& [k, v] : outer) {\n"
            "    for (int x : inner) {\n"
            "      outer.erase(k);\n"   # line 4: outer loop still encloses
            "    }\n"
            "  }\n"
            "  for (int x : inner) {\n"
            "  }\n"
            "  outer.erase(1);\n"       # line 9: no enclosing loop — clean
            "}\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "src", "core")
            os.makedirs(path)
            fpath = os.path.join(path, "t.cc")
            with open(fpath, "w") as f:
                f.write(src)
            found = [(v.line, v.rule) for v in lint(fpath)]
        self.assertEqual(found, [(4, "erase-in-range-for")])

    def test_declared_identifier_skips_nested_templates(self):
        code = "std::unordered_map<int, std::pair<int, int>> table_;"
        m = corona_lint.UNORDERED_DECL_RE.search(code)
        self.assertIsNotNone(m)
        self.assertEqual(corona_lint.declared_identifier(code, m.end()),
                         "table_")


if __name__ == "__main__":
    unittest.main()
