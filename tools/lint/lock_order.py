#!/usr/bin/env python3
"""lock-order: static lock-acquisition-order lint over the annotated tree.

corona's locking all flows through the corona::Mutex / corona::MutexLock
wrappers (util/sync.h) — enforced by corona-lint's `raw-mutex` rule — so a
line-level scanner can see *every* acquisition site.  This tool builds the
lock-acquisition-order graph and fails on cycles: if thread 1 ever holds A
while taking B and thread 2 holds B while taking A, they can deadlock, and
no amount of testing reliably catches it (the window is often a few
instructions wide).  Clang's -Wthread-safety proves each *individual*
access is guarded; this lint proves the *global* order is consistent.

How the graph is built (two passes, dependency-free):

  pass 1  Collect every `Mutex` / `RecursiveMutex` declaration, keyed by
          the innermost enclosing class/struct: `Worker::mu`,
          `SocketRuntime::mu_`, or a bare name for globals.

  pass 2  Walk each file tracking the held-lock set:
            * `MutexLock l(expr);` / `RecursiveMutexLock l(expr);` RAII
              scopes, popped by brace depth (the wrappers have no manual
              unlock()/lock(), so a scope holds its lock to the end);
            * `CORONA_REQUIRES(mu, ...)` on an inline definition marks
              the locks as held for the following body.
          Acquiring B with A held records edge A -> B with its site.
          A bare member expression (`mu_`, `w->mu`) resolves to a
          declared lock by unique member name, else by the header/source
          pair sharing the file's stem.

Cycles in the graph are always violations.  With `--baseline FILE`, every
edge must additionally appear in the committed baseline
(tools/lint/lock_order_baseline.json): introducing a *new* nesting of one
lock under another is a reviewable event, exactly like a new clang-tidy
finding — refresh with --write-baseline after review.

Waivers: `// lint: lock-order-ok` on (or directly above) an acquisition
line suppresses the edges recorded at that site — the lock is still
tracked as held.  Waive narrowly and say why.

Exit status: 0 clean, 1 violations found, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from corona_lint import (  # noqa: E402
    CXX_EXTENSIONS,
    file_stem,
    gather_files,
    logical_lines,
    waivers_on,
)

MUTEX_DECL_RE = re.compile(
    r"\b(?:corona::)?(Mutex|RecursiveMutex)\b\s+([A-Za-z_]\w*)\s*;"
)
CLASS_OPEN_RE = re.compile(
    r"\b(?:class|struct)\s+(?:CORONA_\w+(?:\([^)]*\))?\s+)*([A-Za-z_]\w*)"
    r"[^;{]*\{"
)
LOCK_DECL_RE = re.compile(
    r"\b(?:corona::)?(?:MutexLock|RecursiveMutexLock)\b\s+[A-Za-z_]\w*"
    r"\s*[({]\s*([^(){};]+?)\s*[)}]"
)
REQUIRES_RE = re.compile(r"\bCORONA_REQUIRES\s*\(([^()]*)\)")


class Lock(NamedTuple):
    identity: str   # "Class::member" or bare global name
    recursive: bool
    path: str       # declaring file
    line: int


class Edge(NamedTuple):
    held: str       # identity already held
    acquired: str   # identity being taken
    path: str
    line: int


class Held(NamedTuple):
    identity: str
    depth: int        # brace depth of the owning scope; popped below it


def collect_locks(files: list[str]) -> list[Lock]:
    locks: list[Lock] = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        depth = 0
        classes: list[tuple[str, int]] = []  # (name, depth of its body)
        for lineno, _, code in logical_lines(text):
            # Declarations are attributed by position, so a one-line
            # `struct X { Mutex m; };` still files m under X.
            decls = list(MUTEX_DECL_RE.finditer(code))
            di = 0
            opens = {m.end() - 1: m.group(1)
                     for m in CLASS_OPEN_RE.finditer(code)}
            for pos, ch in enumerate(code + "\n"):
                while di < len(decls) and decls[di].start() <= pos:
                    m = decls[di]
                    di += 1
                    cls = classes[-1][0] if classes else ""
                    name = m.group(2)
                    identity = f"{cls}::{name}" if cls else name
                    locks.append(Lock(identity,
                                      m.group(1) == "RecursiveMutex",
                                      path, lineno))
                if ch == "{":
                    depth += 1
                    if pos in opens:
                        classes.append((opens[pos], depth))
                elif ch == "}":
                    if classes and classes[-1][1] == depth:
                        classes.pop()
                    depth -= 1
    return locks


def _member_of(expr: str) -> str | None:
    """`w->mu` / `this->mu_` / `p.a` / `mu_` -> the final member token."""
    expr = expr.strip()
    tail = re.split(r"->|\.", expr)[-1].strip()
    return tail if re.fullmatch(r"[A-Za-z_]\w*", tail) else None


class Resolver:
    def __init__(self, locks: list[Lock]):
        self.by_member: dict[str, list[Lock]] = {}
        for lk in locks:
            member = lk.identity.rsplit("::", 1)[-1]
            self.by_member.setdefault(member, []).append(lk)

    def resolve(self, expr: str, path: str) -> Lock | None:
        member = _member_of(expr)
        if member is None:
            return None
        cands = self.by_member.get(member, [])
        if len(cands) == 1:
            return cands[0]
        stem = file_stem(path)
        same = [lk for lk in cands if file_stem(lk.path) == stem]
        return same[0] if len(same) == 1 else None


def scan_file(path: str, resolver: Resolver,
              edges: list[Edge], unresolved: list[str]) -> None:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"lock-order: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    depth = 0
    held: list[Held] = []
    pending_requires: list[str] | None = None  # identities awaiting a '{'
    prev_waived = False

    def acquire(identity: str, recursive: bool, lineno: int,
                waived: bool) -> None:
        for h in held:
            if h.identity == identity and recursive:
                continue  # re-entry on a recursive mutex: no edge
            if not waived:
                edges.append(Edge(h.identity, identity, path, lineno))
        held.append(Held(identity, depth))

    for lineno, raw, code in logical_lines(text):
        waived = "lock-order" in waivers_on(raw) or prev_waived
        prev_waived = "lock-order" in waivers_on(raw) and not code.strip()

        # Positions of interesting events on this line, processed in
        # order so brace depth is correct at each acquisition.
        events: list[tuple[int, str, tuple]] = []
        for m in LOCK_DECL_RE.finditer(code):
            events.append((m.start(), "decl", (m.group(1),)))
        for m in REQUIRES_RE.finditer(code):
            events.append((m.start(), "requires", (m.group(1),)))
        events.sort()
        ei = 0

        for pos, ch in enumerate(code + "\n"):
            while ei < len(events) and events[ei][0] <= pos:
                _, kind, args = events[ei]
                ei += 1
                if kind == "decl":
                    (expr,) = args
                    lk = resolver.resolve(expr, path)
                    if lk is None:
                        unresolved.append(
                            f"{path}:{lineno}: cannot resolve lock "
                            f"expression '{expr.strip()}'")
                        continue
                    acquire(lk.identity, lk.recursive, lineno, waived)
                elif kind == "requires":
                    (arglist,) = args
                    idents = []
                    for piece in arglist.split(","):
                        lk = resolver.resolve(piece, path)
                        if lk is not None:
                            idents.append(lk.identity)
                    if idents:
                        pending_requires = idents
            if ch == "{":
                depth += 1
                if pending_requires is not None:
                    for identity in pending_requires:
                        held.append(Held(identity, depth))
                    pending_requires = None
            elif ch == "}":
                depth -= 1
                while held and held[-1].depth > depth:
                    held.pop()
            elif ch == ";" and pending_requires is not None:
                # Pure declaration (`void f() CORONA_REQUIRES(mu_);`).
                pending_requires = None


def find_cycles(edges: list[Edge]) -> list[list[Edge]]:
    """Returns one representative cycle per strongly-entangled loop found
    by DFS (first back edge along each path)."""
    adj: dict[str, dict[str, Edge]] = {}
    for e in edges:
        adj.setdefault(e.held, {}).setdefault(e.acquired, e)
    cycles: list[list[Edge]] = []
    color: dict[str, int] = {}  # 0/absent white, 1 gray, 2 black

    def dfs(u: str, stack: list[Edge]) -> None:
        color[u] = 1
        for v, e in sorted(adj.get(u, {}).items()):
            if color.get(v, 0) == 1:
                # Back edge: slice the stack from v's entry onward.
                cyc = [e]
                for se in reversed(stack):
                    cyc.insert(0, se)
                    if se.held == v:
                        break
                cycles.append(cyc)
            elif color.get(v, 0) == 0:
                stack.append(e)
                dfs(v, stack)
                stack.pop()
        color[u] = 2

    for node in sorted(adj):
        if color.get(node, 0) == 0:
            dfs(node, [])
    return cycles


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="lock-order",
        description="static lock-acquisition-order / deadlock lint",
    )
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--baseline", metavar="FILE",
                        help="committed edge baseline; unreviewed new "
                             "edges become violations")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write the observed edge set and exit")
    parser.add_argument("--print-graph", action="store_true",
                        help="dump every edge with one example site")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)

    files = [f for f in gather_files(args.paths)
             if os.path.splitext(f)[1] in CXX_EXTENSIONS]
    locks = collect_locks(files)
    resolver = Resolver(locks)
    edges: list[Edge] = []
    unresolved: list[str] = []
    for path in files:
        scan_file(path, resolver, edges, unresolved)

    uniq: dict[tuple[str, str], Edge] = {}
    for e in edges:
        uniq.setdefault((e.held, e.acquired), e)

    if args.write_baseline:
        payload = {
            "comment": "lock-order edge baseline: every `held -> acquired` "
                       "nesting the lint may observe.  A new edge means a "
                       "new lock-order constraint — review it for deadlock "
                       "potential, then refresh with --write-baseline.",
            "edges": sorted([h, a] for h, a in uniq),
        }
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"lock-order: wrote {len(uniq)} edge(s) to "
              f"{args.write_baseline}", file=sys.stderr)
        return 0

    failures = 0
    cycles = find_cycles(edges)
    for cyc in cycles:
        failures += 1
        chain = " -> ".join([cyc[0].held] + [e.acquired for e in cyc])
        print(f"lock-order: CYCLE {chain}")
        for e in cyc:
            print(f"  {e.path}:{e.line}: takes {e.acquired} "
                  f"while holding {e.held}")

    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as f:
                allowed = {tuple(e) for e in json.load(f).get("edges", [])}
        except (OSError, ValueError) as e:
            print(f"lock-order: cannot read baseline {args.baseline}: {e}",
                  file=sys.stderr)
            return 2
        for (h, a), e in sorted(uniq.items()):
            if (h, a) not in allowed:
                failures += 1
                print(f"{e.path}:{e.line}: new lock-order edge "
                      f"{h} -> {a} not in {args.baseline}; review the "
                      "nesting for deadlock potential, then refresh the "
                      "baseline with --write-baseline")

    if args.print_graph:
        for (h, a), e in sorted(uniq.items()):
            print(f"edge {h} -> {a}  ({e.path}:{e.line})")

    for msg in unresolved:
        print(f"lock-order: warning: {msg}", file=sys.stderr)
    if not args.quiet:
        print(f"lock-order: {len(files)} files, {len(locks)} lock(s), "
              f"{len(uniq)} edge(s), {len(cycles)} cycle(s), "
              f"{failures} violation(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
