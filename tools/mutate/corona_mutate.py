#!/usr/bin/env python3
"""corona-mutate: mutation analysis of the protocol core.

The oracle stack (unit tests, corona-check schedule exploration, the
property suites, the CORONA_INVARIANT layer) guards the paper's correctness
claims — total ordering, customized state transfer, resync after crash.
This tool measures how strong those oracles actually are: it plants small,
realistic bugs ("mutants") into src/core, src/replica, src/serial and
src/net, rebuilds, and checks that *something* notices.  A mutant nobody
kills is a hole in the oracle net, listed with its diff so a targeted test
can close it (docs/ANALYSIS.md §7).

Mutation operators
    relop       relational-operator & conditional-boundary flips
                (`<` <-> `<=`, `>` <-> `>=`, `==` <-> `!=`)
    offbyone    off-by-one on `+ 1` / `- 1` arithmetic (seq bookkeeping)
    delcall     delete a side-effecting statement
                (`flush|ack|send|erase|push_back` calls)
    ternary     swap the arms of a `cond ? a : b`
    const       perturb a numeric constant on timeout/batch/bound lines

Kill pipeline (per mutant, stops at the first kill)
    stage 0     rebuild — a compile error is a *stillborn* mutant, excluded
                from the score (it was never a plausible bug)
    stage 1     fast unit tests for the mutated directory
    stage 2     corona-check bounded DFS (single / batched / replicated)
    stage 3     property & chaos suites

Results land in MUTATION_REPORT.json: per-mutant kill stage, killer, wall
time, and for survivors the diff plus the nearest oracle that should have
seen it.  A content-hash cache (build-root/cache.json) skips mutants whose
source file, mutation and stage plan are unchanged; killed verdicts stay
valid when tests are only added (oracles grow monotonically), survivors are
re-run with --recheck-survivors.

Some survivors are not oracle holes: a mutant can be semantically
equivalent to the original program (dead defensive code, an unreachable
boundary, a latency heuristic no deterministic test may pin).  Those are
recorded in the `equivalents` section of MUTATION_BASELINE.json, keyed by
a line-number-free id (`rel:op:k-sig` — the sig hashes the line content,
so the key survives renumbering) and each carrying a mandatory written
rationale (the analysis lives in ANALYSIS.md §7).  Recorded equivalents
still execute but are excluded from the score denominator, and one that a
test manages to KILL fails the run until its stale entry is deleted — the
ledger only shrinks as oracles strengthen, like the lint baselines.

Modes
    --list                enumerate mutation points, run nothing
    --full                run every generated mutant (capped by --max-mutants)
    --sample N            run a deterministic sample (--sample-seed)
    --ci                  sampled mode + golden mutants, compared against a
                          recorded baseline (--baseline); exits 1 on a score
                          regression or an unkilled golden mutant
    --golden-only         run just the four golden mutants
    --mutant ID           reproduce a single mutant locally

The four golden mutants re-plant the `--seed-*-bug` bugs the repo already
uses to validate corona-check (gap detection off, batch-tail drop) plus a
sequencer skip and a lock-FIFO inversion; the pipeline must kill each at
stage <= 2 or the run fails.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from typing import NamedTuple

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

SCAN_DIRS = ["src/core", "src/replica", "src/serial", "src/net"]

# Tool version: bump to invalidate every cache entry (operator or pipeline
# semantics changed).
PIPELINE_VERSION = 1

CHECK_SINGLE = ("corona-check", ["--schedules", "250", "--depth", "16"])
CHECK_BATCH = ("corona-check",
               ["--batch", "4", "--schedules", "200", "--depth", "16"])
CHECK_REPLICATED = ("corona-check",
                    ["--world", "replicated", "--schedules", "150",
                     "--depth", "20"])

# Per-directory kill plan: stage 1 fast unit tests, stage 2 corona-check
# sweeps, stage 3 property/chaos suites.  Names are CMake targets; tuples
# are (binary, argv) corona-check invocations expected to exit 0.
STAGE_PLANS = {
    "core": [
        ["core_components_test", "shared_state_test", "server_client_test",
         "client_failure_test", "front_end_test"],
        [CHECK_SINGLE, CHECK_BATCH],
        ["property_test", "batch_property_test", "fault_injection_test",
         "client_api_test"],
    ],
    "serial": [
        ["serial_test", "storage_test"],
        [CHECK_SINGLE, CHECK_REPLICATED],
        ["property_test", "batch_property_test"],
    ],
    "replica": [
        ["replica_components_test", "replica_integration_test",
         "front_end_test"],
        [CHECK_REPLICATED, CHECK_SINGLE],
        ["replica_chaos_test", "replica_edge_test", "peer_join_test",
         "replica_cold_restart_test"],
    ],
    "net": [
        ["net_frame_test", "net_address_test"],
        ["socket_loopback_test"],
        ["net_frame_fuzz_test"],
    ],
}

# "Nearest oracle" hint for survivors: the suite a bug in this directory
# should have tripped, used when triaging MUTATION_REPORT.json survivors.
NEAREST_ORACLE = {
    "core": "corona-check single/batched oracles + property_test",
    "serial": "serial_test codec round-trips",
    "replica": "corona-check replicated oracles + replica_chaos_test",
    "net": "net_frame_test / socket_loopback_test",
}

TEST_TIMEOUT_S = 240
CHECK_TIMEOUT_S = 300
BUILD_TIMEOUT_S = 900


class GoldenSpec(NamedTuple):
    gid: str
    rel: str           # file under the repo root
    find: str          # regex locating the target line
    sub: str           # replacement applied to that line (re.sub)
    description: str
    nth: int = 0       # which match when the pattern hits several lines


# The golden mutants: known-real bugs the oracle stack is documented to
# catch (the `--seed-*-bug` plants, ANALYSIS.md §4) plus two protocol-core
# classics.  Each must die at stage <= 2.
GOLDENS = [
    GoldenSpec(
        "golden-gap-detection-off",
        "src/core/client.cc",
        r"if \(!config_\.gap_detection\) break;",
        "if (true) break;",
        "client applies reordered deliveries without gap detection "
        "(--seed-bug equivalent: silent divergence)",
    ),
    GoldenSpec(
        "golden-drop-batch-tail",
        "src/core/outbox.cc",
        r"drop_tail_ && msgs\.size\(\) > 1",
        "msgs.size() > 1",
        "server drops the tail record of every coalesced batch frame "
        "(--seed-batch-bug equivalent)",
    ),
    GoldenSpec(
        "golden-sequencer-skip",
        "src/core/group.cc",
        r"rec\.seq = next_seq_\+\+;",
        "rec.seq = ++next_seq_;",
        "group sequencer skips a sequence number per multicast "
        "(total-order gap)",
    ),
    GoldenSpec(
        "golden-lock-lifo",
        "src/core/locks.cc",
        r"e\.holder = e\.queue\.front\(\);",
        "e.holder = e.queue.back();",
        "lock release grants the newest waiter but dequeues the oldest "
        "(FIFO inversion + lost waiter)",
        0,  # first occurrence: LockTable::release (the second is drop_member)
    ),
]


# ---------------------------------------------------------------------------
# Source masking: blank strings and comments (preserving column positions)
# so operators only fire on real code.
# ---------------------------------------------------------------------------

def mask_source(text: str) -> list[str]:
    """Returns the file as lines with string/char literals and comments
    replaced by spaces.  Positions are preserved so a regex match on a
    masked line maps 1:1 onto the raw line."""
    out_lines: list[str] = []
    in_block = False
    for raw in text.splitlines():
        buf = list(raw)
        i, n = 0, len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    for j in range(i, n):
                        buf[j] = " "
                    i = n
                else:
                    for j in range(i, end + 2):
                        buf[j] = " "
                    in_block = False
                    i = end + 2
                continue
            c = raw[i]
            if raw.startswith("//", i):
                for j in range(i, n):
                    buf[j] = " "
                break
            if raw.startswith("/*", i):
                in_block = True
                continue
            if c in "\"'":
                quote = c
                j = i + 1
                while j < n:
                    if raw[j] == "\\":
                        j += 2
                        continue
                    if raw[j] == quote:
                        break
                    j += 1
                for k in range(i + 1, min(j, n)):
                    buf[k] = " "
                i = min(j, n - 1) + 1
                continue
            i += 1
        out_lines.append("".join(buf))
    return out_lines


# ---------------------------------------------------------------------------
# Mutation operators
# ---------------------------------------------------------------------------

class Mutant(NamedTuple):
    mid: str          # stable id: rel:line:op:k-hash
    rel: str          # repo-relative path
    line: int         # 1-based
    op: str
    original: str     # the raw line before mutation
    mutated: str      # the raw line after mutation
    description: str


def _line_mutant(rel: str, lineno: int, op: str, k: int, raw: str,
                 mutated: str, desc: str) -> Mutant:
    sig = hashlib.sha256(
        f"{op}|{raw}|{mutated}".encode()).hexdigest()[:8]
    mid = f"{rel}:{lineno}:{op}:{k}-{sig}"
    return Mutant(mid, rel, lineno, op, raw, mutated, desc)


# Relational flips.  Bare `<`/`>` only when space-padded (the repo style for
# binary comparisons; template args and arrows are unspaced).  `<=`/`>=` and
# `==`/`!=` are unambiguous modulo shifts and the spaceship.
RELOP_FLIPS = [
    (re.compile(r"(?<=[\w\s)\]]) <= (?=[\w\s(\-+!])"), " < ", "<= -> <"),
    (re.compile(r"(?<=[\w\s)\]]) >= (?=[\w\s(\-+!])"), " > ", ">= -> >"),
    (re.compile(r"(?<=[\w\s)\]]) < (?=[\w\s(\-+!])"), " <= ", "< -> <="),
    (re.compile(r"(?<=[\w\s)\]]) > (?=[\w\s(\-+!])"), " >= ", "> -> >="),
    (re.compile(r"(?<=[\w\s)\]]) == (?=[\w\s(\-+!])"), " != ", "== -> !="),
    (re.compile(r"(?<=[\w\s)\]]) != (?=[\w\s(\-+!])"), " == ", "!= -> =="),
]

OFFBYONE_SUBS = [
    (re.compile(r"\+ 1(?=[;,)\s\]])"), "+ 2", "+1 -> +2"),
    (re.compile(r"- 1(?=[;,)\s\]])"), "- 2", "-1 -> -2"),
]

DELCALL_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*"
    r"[A-Za-z_]*(?:flush|ack|send|erase|push_back)\w*\s*\(.*\)\s*;\s*$")

CONST_LINE_RE = re.compile(
    r"timeout|interval|delay|batch|backoff|retry|keepalive|max|limit|bound"
    r"|window|threshold", re.IGNORECASE)
CONST_INT_RE = re.compile(r"(?<![\w.])([2-9]|[1-9]\d+)(?![\w.])")

SKIP_LINE_RE = re.compile(
    r"^\s*(?:#|template\b|static_assert\b|using\b|namespace\b|case\b"
    r"|CORONA_|LOG_)")


def find_ternary(masked: str) -> tuple[int, int, int] | None:
    """Finds a single-line spaced ternary; returns (q, c, end) — positions
    of ' ? ', ' : ' and the arm end — or None."""
    q = masked.find(" ? ")
    if q < 0:
        return None
    c = masked.find(" : ", q + 3)
    if c < 0 or "?" in masked[q + 3:c]:
        return None
    # Second arm runs to the last of ; ) , on the line (trailing delimiters).
    tail = masked.rstrip()
    end = len(tail)
    while end > c + 3 and tail[end - 1] in ");,":
        end -= 1
    if end <= c + 3:
        return None
    # Arms must be balanced so we don't cut a call in half.
    for lo, hi in ((q + 3, c), (c + 3, end)):
        seg = masked[lo:hi]
        if seg.count("(") != seg.count(")") or not seg.strip():
            return None
    return q, c, end


def generate_for_file(rel: str, text: str) -> list[Mutant]:
    mutants: list[Mutant] = []
    masked_lines = mask_source(text)
    raw_lines = text.splitlines()
    for idx, (raw, masked) in enumerate(zip(raw_lines, masked_lines)):
        lineno = idx + 1
        if SKIP_LINE_RE.match(masked) or not masked.strip():
            continue
        # relop / conditional boundary
        k = 0
        for pat, repl, desc in RELOP_FLIPS:
            for m in pat.finditer(masked):
                mutated = raw[:m.start()] + repl + raw[m.end():]
                mutants.append(_line_mutant(
                    rel, lineno, "relop", k, raw, mutated, desc))
                k += 1
        # off-by-one
        k = 0
        for pat, repl, desc in OFFBYONE_SUBS:
            for m in pat.finditer(masked):
                mutated = raw[:m.start()] + repl + raw[m.end():]
                mutants.append(_line_mutant(
                    rel, lineno, "offbyone", k, raw, mutated, desc))
                k += 1
        # delete side-effecting statement
        if (DELCALL_RE.match(masked) and "=" not in masked
                and masked.count("(") == masked.count(")")):
            mutated = raw[:len(raw) - len(raw.lstrip())] + ";"
            mutants.append(_line_mutant(
                rel, lineno, "delcall", 0, raw, mutated,
                "side-effecting statement deleted"))
        # ternary arm swap
        t = find_ternary(masked)
        if t is not None:
            q, c, end = t
            mutated = (raw[:q + 3] + raw[c + 3:end] + " : "
                       + raw[q + 3:c] + raw[end:])
            if mutated != raw:
                mutants.append(_line_mutant(
                    rel, lineno, "ternary", 0, raw, mutated,
                    "ternary arms swapped"))
        # constant perturbation on timeout/batch/bound lines
        if CONST_LINE_RE.search(masked):
            k = 0
            for m in CONST_INT_RE.finditer(masked):
                val = int(m.group(1))
                mutated = raw[:m.start()] + str(val * 2) + raw[m.end():]
                mutants.append(_line_mutant(
                    rel, lineno, "const", k, raw, mutated,
                    f"constant {val} -> {val * 2}"))
                k += 1
    return mutants


def scan_tree(repo: str) -> list[Mutant]:
    mutants: list[Mutant] = []
    for d in SCAN_DIRS:
        root = os.path.join(repo, d)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".cc"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, repo)
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                mutants.extend(generate_for_file(rel, text))
    return mutants


def golden_mutants(repo: str) -> list[Mutant]:
    out: list[Mutant] = []
    for g in GOLDENS:
        path = os.path.join(repo, g.rel)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        hits = [(i + 1, ln) for i, ln in enumerate(lines)
                if re.search(g.find, ln)]
        if g.nth >= len(hits):
            raise RuntimeError(
                f"golden {g.gid}: pattern {g.find!r} matched "
                f"{len(hits)} lines in {g.rel} (need index {g.nth}) — "
                "update the GoldenSpec")
        lineno, raw = hits[g.nth]
        mutated = re.sub(g.find, g.sub.replace("\\", "\\\\"), raw)
        out.append(Mutant(g.gid, g.rel, lineno, "golden", raw, mutated,
                          g.description))
    return out


# ---------------------------------------------------------------------------
# Build & run
# ---------------------------------------------------------------------------

class Pipeline:
    def __init__(self, repo: str, build_root: str, verbose: bool = False):
        self.repo = repo
        self.build_root = os.path.abspath(build_root)
        self.tree = os.path.join(self.build_root, "tree")
        self.bld = os.path.join(self.build_root, "bld")
        self.verbose = verbose

    # -- shadow tree ---------------------------------------------------------

    def setup(self) -> None:
        """Copies the repo into the shadow tree and configures a fast -O0
        build with the invariant checkpoints active."""
        os.makedirs(self.build_root, exist_ok=True)
        for sub in ("CMakeLists.txt", "CMakePresets.json", ".clang-tidy"):
            src = os.path.join(self.repo, sub)
            if os.path.isfile(src):
                os.makedirs(self.tree, exist_ok=True)
                shutil.copy2(src, os.path.join(self.tree, sub))
        for sub in ("src", "tests", "bench", "examples", "fuzz", "tools"):
            src = os.path.join(self.repo, sub)
            dst = os.path.join(self.tree, sub)
            if not os.path.isdir(src):
                continue
            shutil.rmtree(dst, ignore_errors=True)
            shutil.copytree(src, dst,
                            ignore=shutil.ignore_patterns(
                                "build", ".git", "__pycache__"))
        if not os.path.isfile(os.path.join(self.bld, "CMakeCache.txt")):
            self._run(["cmake", "-S", self.tree, "-B", self.bld,
                       "-DCMAKE_BUILD_TYPE=Debug",
                       "-DCMAKE_CXX_FLAGS_DEBUG=-O0"],
                      timeout=BUILD_TIMEOUT_S)

    def sync_tests(self) -> None:
        """Re-copies tests/ (oracles may have grown since setup)."""
        src = os.path.join(self.repo, "tests")
        dst = os.path.join(self.tree, "tests")
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)

    def _run(self, argv: list[str], timeout: int,
             cwd: str | None = None) -> subprocess.CompletedProcess:
        if self.verbose:
            print(f"    $ {' '.join(argv)}", flush=True)
        return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)

    def build_target(self, target: str) -> tuple[bool, str]:
        try:
            proc = self._run(["cmake", "--build", self.bld,
                              "--target", target, "-j2"],
                             timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, "build timeout"
        return proc.returncode == 0, proc.stdout[-4000:]

    def _binary(self, name: str) -> str:
        for cand in (os.path.join(self.bld, "tests", name),
                     os.path.join(self.bld, "src", name),
                     os.path.join(self.bld, name)):
            if os.path.isfile(cand):
                return cand
        raise FileNotFoundError(f"binary {name} not found under {self.bld}")

    def run_oracle(self, entry) -> tuple[bool, str, float]:
        """Builds + runs one stage entry.  Returns (killed, detail, secs)."""
        t0 = time.monotonic()
        if isinstance(entry, tuple):
            binary_name, extra = entry
            target, timeout = "corona_check", CHECK_TIMEOUT_S
            label = f"{binary_name} {' '.join(extra)}"
        else:
            binary_name, extra = entry, []
            target, timeout = entry, TEST_TIMEOUT_S
            label = entry
        ok, out = self.build_target(target)
        if not ok:
            # A mutant that breaks the *test* build (e.g. a deleted symbol)
            # still counts as caught by the build, handled by the caller.
            return True, f"build of {target} failed", time.monotonic() - t0
        argv = [self._binary(binary_name)] + list(extra)
        if not isinstance(entry, tuple):
            argv.append("--gtest_brief=1")
        try:
            proc = self._run(argv, timeout=timeout)
        except subprocess.TimeoutExpired:
            return True, f"{label}: timeout (hang)", time.monotonic() - t0
        killed = proc.returncode != 0
        detail = f"{label}: exit {proc.returncode}"
        return killed, detail, time.monotonic() - t0

    # -- mutant lifecycle ----------------------------------------------------

    def apply(self, m: Mutant) -> bytes:
        path = os.path.join(self.tree, m.rel)
        with open(path, "rb") as f:
            original = f.read()
        lines = original.decode("utf-8").splitlines(keepends=True)
        idx = m.line - 1
        eol = "\n" if lines[idx].endswith("\n") else ""
        if lines[idx].rstrip("\n") != m.original:
            raise RuntimeError(
                f"{m.mid}: tree line {m.line} no longer matches the mutant "
                "(stale mutant id — regenerate)")
        lines[idx] = m.mutated + eol
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(lines))
        return original

    def restore(self, m: Mutant, original: bytes) -> None:
        with open(os.path.join(self.tree, m.rel), "wb") as f:
            f.write(original)

    def run_mutant(self, m: Mutant) -> dict:
        """Runs the tiered pipeline for one mutant; returns a result dict."""
        plan = STAGE_PLANS[top_dir(m.rel)]
        t0 = time.monotonic()
        original = self.apply(m)
        result = {
            "id": m.mid, "file": m.rel, "line": m.line, "op": m.op,
            "description": m.description,
            "diff": unified_diff(m),
        }
        try:
            ok, out = self.build_target("corona")
            if not ok:
                result.update(status="stillborn", stage=0,
                              killer="compile error",
                              wall_s=round(time.monotonic() - t0, 1))
                return result
            for stage_no, stage in enumerate(plan, start=1):
                for entry in stage:
                    killed, detail, _secs = self.run_oracle(entry)
                    if killed:
                        result.update(
                            status="killed", stage=stage_no, killer=detail,
                            wall_s=round(time.monotonic() - t0, 1))
                        return result
            result.update(status="survived", stage=None, killer=None,
                          nearest_oracle=NEAREST_ORACLE[top_dir(m.rel)],
                          stages_run=len(plan),
                          wall_s=round(time.monotonic() - t0, 1))
            return result
        finally:
            self.restore(m, original)

    def rebuild_pristine(self) -> None:
        """After a batch of mutants, rebuild once so the tree's objects match
        the pristine sources again (keeps later cache hits honest)."""
        self.build_target("corona")


def top_dir(rel: str) -> str:
    parts = rel.replace(os.sep, "/").split("/")
    return parts[1] if len(parts) > 1 and parts[0] == "src" else parts[0]


def unified_diff(m: Mutant) -> str:
    return "".join(difflib.unified_diff(
        [m.original + "\n"], [m.mutated + "\n"],
        fromfile=f"a/{m.rel}", tofile=f"b/{m.rel}",
        lineterm="\n", n=0)).replace("@@ -1 +1 @@\n", f"@@ line {m.line} @@\n")


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def cache_key(repo: str, m: Mutant) -> str:
    path = os.path.join(repo, m.rel)
    with open(path, "rb") as f:
        file_hash = hashlib.sha256(f.read()).hexdigest()
    plan = STAGE_PLANS[top_dir(m.rel)]
    plan_sig = hashlib.sha256(
        json.dumps(plan, sort_keys=True).encode()).hexdigest()[:12]
    return f"v{PIPELINE_VERSION}:{m.mid}:{file_hash[:16]}:{plan_sig}"


def load_cache(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def save_cache(path: str, cache: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cache, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def deterministic_sample(mutants: list[Mutant], n: int,
                         seed: int) -> list[Mutant]:
    """Same seed + same mutant set -> same sample, independent of dict/hash
    order.  Sorted by id first so the population order is canonical."""
    population = sorted(mutants, key=lambda m: m.mid)
    if n >= len(population):
        return population
    rng = random.Random(seed)
    return sorted(rng.sample(population, n), key=lambda m: m.mid)


# ---------------------------------------------------------------------------
# Reviewed-equivalent ledger
# ---------------------------------------------------------------------------

def stable_key(mid: str) -> str:
    """Line-number-free mutant key (`rel:op:k-sig`).  The sig hashes the
    line's content together with its mutation, so the key survives the
    renumbering that unrelated edits cause — the same property the lint
    baselines get from `(rule, subject, leaf)` keys."""
    if mid.count(":") < 3:
        return mid  # goldens and other non-positional ids
    rel, _line, op, tail = mid.rsplit(":", 3)
    return f"{rel}:{op}:{tail}"


def load_equivalents(baseline: dict) -> dict[str, str]:
    """The `equivalents` section of the CI baseline: reviewed mutants that
    are semantically equivalent to the original program (or observable only
    through means the suite deliberately excludes, e.g. death tests).  Each
    entry must carry a written rationale; they are excluded from the score
    denominator, and a recorded equivalent that a test KILLS fails the run
    loudly — the ledger must shrink when the oracles strengthen, exactly
    like the lint baselines."""
    out: dict[str, str] = {}
    for entry in baseline.get("equivalents", []):
        key, rationale = entry.get("key", ""), entry.get("rationale", "")
        if not key or not rationale.strip():
            raise ValueError(
                f"equivalents entry {key!r} has no written rationale")
        out[key] = rationale
    return out


def resolve_equivalents(equivalents: dict[str, str],
                        all_mutants: list[Mutant]) -> dict[str, str]:
    """Map ledger keys onto current mutant ids.  A key may be a full
    line-qualified id (exact, survives textual twins) or the line-free
    stable key (survives renumbering).  A stable key matching several
    mutation points — identical lines elsewhere in the same file — is
    refused: twins can differ semantically (`n > 0` after sendmsg is an
    unreachable boundary; the same text after recv is an EOF bug), so an
    ambiguous entry must pin the exact id.  Raises ValueError."""
    all_mids = {m.mid for m in all_mutants}
    by_stable: dict[str, list[str]] = {}
    for m in all_mutants:
        by_stable.setdefault(stable_key(m.mid), []).append(m.mid)
    resolved: dict[str, str] = {}
    for key, why in equivalents.items():
        if key in all_mids:
            resolved[key] = why
            continue
        mids = by_stable.get(key, [])
        if len(mids) > 1:
            raise ValueError(
                f"equivalents ledger key {key!r} is ambiguous — "
                f"{len(mids)} textual twins ({', '.join(sorted(mids))}); "
                "pin the full line-qualified id")
        if mids:
            resolved[mids[0]] = why
        # An unmatched key is not an error: the line content changed or the
        # mutation point vanished; the entry is inert until it matches.
    return resolved


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def summarize(results: list[dict], generated: int, config: dict) -> dict:
    executed = [r for r in results if r["status"] != "stillborn"]
    killed = [r for r in executed if r["status"] == "killed"]
    survived = [r for r in executed if r["status"] == "survived"]
    # Reviewed equivalents are executed (so a stale entry is noticed) but
    # excluded from the score denominator: an unkillable mutant measures
    # nothing about oracle strength.
    equivalent = [r for r in executed if r["status"] == "equivalent"]
    by_stage: dict[str, int] = {}
    by_op: dict[str, dict[str, int]] = {}
    by_dir: dict[str, dict[str, int]] = {}
    for r in killed:
        by_stage[str(r["stage"])] = by_stage.get(str(r["stage"]), 0) + 1
    for r in executed:
        for table, key in ((by_op, r["op"]), (by_dir, top_dir(r["file"]))):
            slot = table.setdefault(
                key, {"killed": 0, "survived": 0, "equivalent": 0})
            slot[r["status"]] += 1
    scored = len(killed) + len(survived)
    score = (len(killed) / scored) if scored else 0.0
    return {
        "config": config,
        "generated": generated,
        "executed": len(executed),
        "killed": len(killed),
        "survived": len(survived),
        "equivalent": len(equivalent),
        "stillborn": len(results) - len(executed),
        "score": round(score, 4),
        "killed_by_stage": by_stage,
        "by_operator": by_op,
        "by_directory": by_dir,
        "survivors": [
            {k: r[k] for k in ("id", "file", "line", "op", "description",
                               "diff", "nearest_oracle")}
            for r in sorted(survived, key=lambda r: r["id"])
        ],
        "mutants": sorted(results, key=lambda r: r["id"]),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def repo_root() -> str:
    return os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="corona-mutate", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true",
                      help="enumerate mutation points and exit")
    mode.add_argument("--full", action="store_true",
                      help="run every generated mutant (see --max-mutants)")
    mode.add_argument("--sample", type=int, metavar="N",
                      help="run a deterministic sample of N mutants")
    mode.add_argument("--ci", action="store_true",
                      help="sampled CI mode: budgeted sample + goldens, "
                      "blocking on --baseline score regression")
    mode.add_argument("--golden-only", action="store_true",
                      help="run only the golden mutants")
    mode.add_argument("--mutant", metavar="ID",
                      help="run one mutant by id (reproduce a survivor)")
    parser.add_argument("--repo", default=repo_root())
    parser.add_argument("--build-root", default=None,
                        help="work area (default <repo>/build/mutate)")
    parser.add_argument("--report", default=None,
                        help="report path (default <repo>/MUTATION_REPORT.json"
                        "; CI mode defaults to build-root/ci_report.json)")
    parser.add_argument("--max-mutants", type=int, default=200,
                        help="cap on executed mutants in --full mode "
                        "(deterministically sampled down; default 200)")
    parser.add_argument("--sample-seed", type=int, default=20260806,
                        help="seed for the deterministic sampler")
    parser.add_argument("--baseline", default=None,
                        help="CI baseline json (score floor + sample spec)")
    parser.add_argument("--recheck-survivors", action="store_true",
                        help="re-run cached survivors (after adding tests)")
    parser.add_argument("--no-goldens", action="store_true",
                        help="skip the golden mutants (debugging only)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    repo = os.path.abspath(args.repo)
    build_root = args.build_root or os.path.join(repo, "build", "mutate")

    # The reviewed-equivalent ledger applies in every mode, not just --ci:
    # the default baseline is consulted when --baseline is not given.
    baseline_path = args.baseline or os.path.join(
        repo, "tools", "mutate", "MUTATION_BASELINE.json")
    baseline: dict = {}
    if os.path.isfile(baseline_path):
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
    try:
        equivalents = load_equivalents(baseline)
    except ValueError as e:
        print(f"corona-mutate: {e}", file=sys.stderr)
        return 2

    all_mutants = scan_tree(repo)
    goldens = golden_mutants(repo)
    try:
        equivalents = resolve_equivalents(equivalents, all_mutants)
    except ValueError as e:
        print(f"corona-mutate: {e}", file=sys.stderr)
        return 2

    if args.list:
        for m in sorted(all_mutants, key=lambda m: m.mid):
            print(f"{m.mid}\n  - {m.original.strip()}\n  + {m.mutated.strip()}")
        print(f"# {len(all_mutants)} mutation points over "
              f"{', '.join(SCAN_DIRS)} (+{len(goldens)} goldens)",
              file=sys.stderr)
        return 0

    # Choose the run set.
    config: dict = {"sample_seed": args.sample_seed,
                    "pipeline_version": PIPELINE_VERSION,
                    "scan_dirs": SCAN_DIRS}
    if args.mutant:
        chosen = [m for m in all_mutants + goldens if m.mid == args.mutant]
        if not chosen:
            print(f"corona-mutate: no mutant {args.mutant!r} "
                  "(ids change when the source line changes; try --list)",
                  file=sys.stderr)
            return 2
        run_goldens: list[Mutant] = []
        config["mode"] = "single"
    elif args.golden_only:
        chosen, run_goldens = [], goldens
        config["mode"] = "golden-only"
    elif args.ci:
        n = int(baseline.get("sample_size", 10))
        seed = int(baseline.get("sample_seed", args.sample_seed))
        chosen = deterministic_sample(all_mutants, n, seed)
        run_goldens = [] if args.no_goldens else goldens
        config.update(mode="ci", sample_size=n, sample_seed=seed)
    elif args.sample is not None:
        chosen = deterministic_sample(all_mutants, args.sample,
                                      args.sample_seed)
        run_goldens = [] if args.no_goldens else goldens
        config.update(mode="sample", sample_size=args.sample)
    elif args.full:
        chosen = deterministic_sample(all_mutants, args.max_mutants,
                                      args.sample_seed)
        run_goldens = [] if args.no_goldens else goldens
        config.update(mode="full", max_mutants=args.max_mutants)
    else:
        parser.print_usage(sys.stderr)
        return 2

    pipe = Pipeline(repo, build_root, verbose=args.verbose)
    print(f"[mutate] shadow tree {pipe.tree}", flush=True)
    pipe.setup()
    pipe.sync_tests()

    cache_path = os.path.join(build_root, "cache.json")
    cache = load_cache(cache_path)

    results: list[dict] = []
    golden_results: list[dict] = []
    stale_equivalents: list[tuple[str, str]] = []
    todo = [(m, False) for m in chosen] + [(g, True) for g in run_goldens]
    for i, (m, is_golden) in enumerate(todo, start=1):
        key = cache_key(repo, m)
        cached = cache.get(key)
        reuse = cached is not None and not (
            args.recheck_survivors and cached["status"] == "survived")
        if reuse:
            r = dict(cached)
            r["cached"] = True
        else:
            print(f"[mutate] ({i}/{len(todo)}) {m.mid}", flush=True)
            r = pipe.run_mutant(m)
            cache[key] = r
            save_cache(cache_path, cache)
        # Ledger relabeling happens after the cache so cached verdicts stay
        # raw: a surviving mutant with a reviewed equivalence rationale is
        # excluded from the score; a KILLED one means the entry went stale.
        if not is_golden and m.mid in equivalents:
            if r["status"] == "survived":
                r["status"] = "equivalent"
                r["equivalence_rationale"] = equivalents[m.mid]
            elif r["status"] == "killed":
                stale_equivalents.append((m.mid, r.get("killer", "")))
        (golden_results if is_golden else results).append(r)
        tag = "CACHED " if reuse else ""
        print(f"[mutate]   {tag}{r['status']}"
              + (f" at stage {r['stage']} ({r['killer']})"
                 if r["status"] == "killed" else ""), flush=True)
    pipe.rebuild_pristine()

    # Golden gate: each must be killed at stage <= 2.
    golden_ok = True
    for r in golden_results:
        ok = r["status"] == "killed" and (r["stage"] or 99) <= 2
        golden_ok &= ok
        print(f"[mutate] golden {r['id']}: {r['status']}"
              f" stage={r.get('stage')} -> {'OK' if ok else 'FAIL'}")

    report = summarize(results, generated=len(all_mutants), config=config)
    report["golden"] = [
        {"id": r["id"], "status": r["status"], "stage": r.get("stage"),
         "killer": r.get("killer"), "description": r["description"]}
        for r in golden_results
    ]
    report["golden_ok"] = golden_ok

    report_path = args.report or (
        os.path.join(build_root, "ci_report.json") if args.ci
        else os.path.join(repo, "MUTATION_REPORT.json"))
    if args.mutant:
        print(json.dumps(results[0], indent=2))
        return 0 if results and results[0]["status"] != "survived" else 1
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"[mutate] report -> {report_path}")
    print(f"[mutate] generated {report['generated']} points; executed "
          f"{report['executed']}: {report['killed']} killed, "
          f"{report['survived']} survived, "
          f"{report['equivalent']} reviewed-equivalent, "
          f"{report['stillborn']} stillborn "
          f"-> score {report['score']:.1%}")

    if stale_equivalents:
        for mid, killer in stale_equivalents:
            print(f"[mutate] FAIL: recorded equivalent {mid} was KILLED "
                  f"({killer}) — remove its stale ledger entry from "
                  f"{baseline_path}", file=sys.stderr)
        return 1
    if not golden_ok and not args.no_goldens:
        print("[mutate] FAIL: a golden mutant was not killed at stage <= 2",
              file=sys.stderr)
        return 1
    if args.ci and args.baseline:
        floor = float(baseline.get("score_floor", 0.0))
        if report["executed"] and report["score"] < floor:
            print(f"[mutate] FAIL: sampled score {report['score']:.1%} "
                  f"below recorded baseline floor {floor:.1%}",
                  file=sys.stderr)
            return 1
        print(f"[mutate] CI gate OK: score {report['score']:.1%} >= "
              f"floor {floor:.1%}, goldens killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
