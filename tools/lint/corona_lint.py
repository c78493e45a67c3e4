#!/usr/bin/env python3
"""corona-lint: dependency-free determinism & concurrency lint for src/.

The simulator must be bit-reproducible: the same seed must yield the same
event trace, the same stats, the same bytes.  Most determinism bugs enter
through a handful of C++ constructs, so this lint bans them mechanically,
with per-directory scoping (the socket transport in net/ is *allowed* to
use real clocks and threads — that is its job).

Rules (see docs/ANALYSIS.md for the full contract):

  wall-clock     src/** except net/
                 No std::chrono::{system,steady,high_resolution}_clock,
                 time(), gettimeofday, clock_gettime, localtime, gmtime.
                 Sim-visible code must read time from its injected Runtime.
                 (net/ is a real transport: wall-clock is its job.)

  raw-random     src/** (no exemption)
                 No rand()/srand()/drand48, std::random_device, std::mt19937.
                 All randomness flows through the seeded util/rng.h.
                 net/ is NOT exempt: reconnect backoff etc. must be
                 deterministic.

  unordered-container
                 src/core, src/replica, src/sim, src/net, src/check
                 No std::unordered_map/set declarations: iteration order is
                 nondeterministic and *someone* eventually iterates.  Use
                 std::map/std::set, or waive lookup-only uses.

  unordered-iteration
                 src/core, src/replica, src/sim, src/net, src/check
                 No range-for / .begin() iteration over an identifier that
                 was declared anywhere in the scanned tree as an unordered
                 container (catches members declared in headers elsewhere).

  erase-in-range-for
                 src/core, src/replica, src/sim, src/net, src/check
                 No `c.erase(...)` inside a range-for over `c`: erasing
                 invalidates the iterators driving the loop (undefined
                 behaviour that often *passes* tests).  Collect victims and
                 erase after the loop, or use an explicit iterator loop with
                 the erase() return value.  Waive with `erase-ok` only when
                 the loop provably exits right after (e.g. erase+break).

  raw-thread     src/** except src/net
                 No std::thread/std::jthread/std::mutex/std::shared_mutex/
                 std::recursive_mutex/std::condition_variable/std::async.
                 Concurrency lives in the transport layer only: the socket
                 runtime's loop thread is the one thread src/ starts.

  raw-mutex      src/** except src/util/sync.h
                 No std::mutex/std::recursive_mutex/std::lock_guard/
                 std::unique_lock/std::scoped_lock/std::condition_variable —
                 not even in the transport layer that raw-thread
                 exempts.  All locking goes through the annotated
                 corona::Mutex/MutexLock wrappers (util/sync.h) so
                 the clang -Wthread-safety build and tools/lint/
                 lock_order.py see every acquisition.  std::thread itself
                 stays raw-thread's business (spawning is not locking).

  raw-file-io    src/** except storage/disk/
                 No fopen/freopen/open(2)/creat/openat/mkstemp, no
                 std::{i,o,}fstream, no std::filesystem.  Durability is a
                 protocol property here: every byte that must survive a
                 crash goes through the storage/disk/ backend, which owns
                 the fsync discipline, atomic-replace idiom, and failure
                 policy.  A stray ofstream silently loses data on power
                 loss and dodges the disk counters.  Waive (`file-io-ok`)
                 only for config/diagnostic files whose loss is harmless.

  float-accum    src/sim
                 No float/double in sim cost models without an explicit
                 waiver: accumulating floats makes results depend on
                 evaluation order.  Compute in integral microseconds, or
                 round immediately and waive.

  dispatch-exhaustiveness
                 files carrying a `// lint-dispatch: <Enum>` marker
                 Every enumerator of the named enum (collected from the
                 scanned tree, e.g. MsgType in serial/message.h, FrameKind
                 in net/frame.h) must be referenced in the file
                 (`Enum::kName`) or listed on a `// dispatch-ignore: kA kB
                 -- why` line.  Adding a message type without handling it
                 in every role's dispatch switch is a lint failure, not a
                 silent drop into the default: arm.  Stale ignore entries
                 (listed but referenced, or not an enumerator at all) are
                 violations too, so waiver lists stay minimal.  The role
                 files themselves (CoronaServer, client, ReplicaServer,
                 Coordinator, the serializer's kind list, the SocketRuntime
                 frame loop) are REQUIRED to carry the marker whenever the
                 enum definition is in the scanned set.

Waivers: append `// lint: <rule>-ok` to the offending line (or place it on
the line directly above).  Several waivers may share one comment, e.g.
`// lint: float-ok thread-ok`.  A file with a pervasive, justified
exception may carry `// lint-file: <rule>-ok` once (near the top, with the
justification alongside).  Waive narrowly and say why in a comment.

Exit status: 0 clean, 1 violations found, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Iterable, NamedTuple

CXX_EXTENSIONS = {".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx"}

# `lint:`/`lint-file:` may appear anywhere in a comment, so a waiver can
# share a line with prose: `// 10 Mbps Ethernet; lint: float-ok`.
WAIVER_RE = re.compile(r"(?<![\w-])lint:\s*([a-z0-9\- ]+)")
FILE_WAIVER_RE = re.compile(r"(?<![\w-])lint-file:\s*([a-z0-9\- ]+)")


class Violation(NamedTuple):
    path: str
    line: int
    rule: str
    message: str


class Rule(NamedTuple):
    name: str
    waiver: str  # `<waiver>-ok` in a comment silences the rule
    applies: Callable[[str], bool]  # takes the src-relative path
    pattern: re.Pattern
    message: str


def src_relative(path: str) -> str:
    """Path after the last 'src/' component; '' if there is none.

    Both real sources (src/sim/x.cc) and test fixtures
    (tools/lint/fixtures/src/sim/x.cc) resolve to the same rule scope.
    """
    parts = path.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "src":
            return "/".join(parts[i + 1:])
    return ""


def in_dirs(*prefixes: str) -> Callable[[str], bool]:
    return lambda rel: any(rel.startswith(p) for p in prefixes)


def everywhere_except(*prefixes: str) -> Callable[[str], bool]:
    return lambda rel: bool(rel) and not any(rel.startswith(p) for p in prefixes)


RULES = [
    Rule(
        "wall-clock",
        "clock",
        everywhere_except("net/"),
        re.compile(
            r"std::chrono::(?:system|steady|high_resolution)_clock"
            r"|\b(?:system|steady|high_resolution)_clock::"
            r"|\btime\s*\(\s*(?:NULL|nullptr|0|&|\))"
            r"|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|\bgmtime\b"
        ),
        "wall-clock access outside the socket transport (net/); sim-visible "
        "code must use the injected Runtime clock (runtime/runtime.h)",
    ),
    Rule(
        "raw-random",
        "random",
        everywhere_except(),  # no exemption, not even net/
        re.compile(
            r"\b(?:s?rand)\s*\(|\bd?rand48\b"
            r"|std::random_device|\brandom_device\b|std::mt19937"
        ),
        "unseeded/global randomness; all randomness must flow through the "
        "explicitly seeded corona::Rng (util/rng.h)",
    ),
    Rule(
        "unordered-container",
        "unordered",
        in_dirs("core/", "replica/", "sim/", "net/", "check/", "storage/"),
        re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
        "unordered container in determinism-critical code; iteration order "
        "is nondeterministic — use std::map/std::set (or waive a proven "
        "lookup-only use)",
    ),
    Rule(
        "raw-thread",
        "thread",
        everywhere_except("net/"),
        re.compile(
            r"std::(?:jthread|thread|mutex|shared_mutex|recursive_mutex|"
            r"timed_mutex|condition_variable|async)\b"
        ),
        "raw threading primitive outside src/net/; protocol code is "
        "single-threaded by construction — concurrency belongs to the "
        "socket transport",
    ),
    Rule(
        "raw-mutex",
        "raw-mutex",
        everywhere_except("util/sync.h"),
        re.compile(
            r"std::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
            r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|"
            r"scoped_lock|shared_lock|condition_variable(?:_any)?)\b"
        ),
        "raw std locking primitive; all locking goes through the annotated "
        "corona::Mutex/MutexLock wrappers (util/sync.h) so the "
        "clang thread-safety build and lock_order.py can see it",
    ),
    Rule(
        "raw-file-io",
        "file-io",
        everywhere_except("storage/disk/"),
        re.compile(
            r"\bf(?:re|d)?open\s*\(|\bcreat\s*\(|\bopenat\s*\(|\bopen\s*\("
            r"|\bmkstemps?\s*\(|\btmpfile\s*\("
            r"|std::(?:basic_)?[io]?fstream\b|\b[io]fstream\b"
            r"|std::filesystem\b"
        ),
        "raw file I/O outside src/storage/disk/; durable bytes must go "
        "through the disk backend (fsync discipline, atomic replace, "
        "failure policy, disk counters) — or waive a harmless "
        "config/diagnostic read with a justification",
    ),
    Rule(
        "float-accum",
        "float",
        in_dirs("sim/"),
        re.compile(r"\b(?:float|double)\b"),
        "float/double in sim cost-model code; floating accumulation is "
        "evaluation-order-sensitive — compute in integral microseconds, or "
        "round immediately and waive with a justification",
    ),
]

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)
ENUM_DEF_RE = re.compile(r"\benum\s+class\s+([A-Za-z_]\w*)")
DISPATCH_MARKER_RE = re.compile(r"(?<![\w-])lint-dispatch:\s*([A-Za-z_]\w*)")
DISPATCH_IGNORE_RE = re.compile(
    r"(?<![\w-])dispatch-ignore:\s*([A-Za-z0-9_ ]+?)(?:--|$)")

# Role files that MUST carry a lint-dispatch marker for the given enum
# whenever that enum's definition is inside the scanned file set: the
# dispatch surfaces of the paper's roles, plus the serializer's kind list
# (the cross-check that wire names and dispatch agree on the enumerators).
REQUIRED_DISPATCH_ROLES = {
    "core/server.cc": "MsgType",            # CoronaServer::process
    "core/client.cc": "MsgType",            # CoronaClient::on_message
    "replica/replica_server.cc": "MsgType", # ReplicaServer::on_message
    "replica/coordinator.cc": "MsgType",    # Coordinator fwd_type dispatch
    "serial/message.cc": "MsgType",         # msg_type_name kind list
    "net/socket_runtime.cc": "FrameKind",   # SocketRuntime::handle_frame
    "net/frame.cc": "FrameKind",            # FrameDecoder::parse_body
}
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(?:this->)?(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?r?begin\s*\(")
ERASE_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*erase\s*\(")

# Directories under the full determinism contract (unordered-* and
# erase-in-range-for); the remaining rules carry their own scopes above.
# storage/ joined in PR 8: flush/crash iterate per-group state with
# externally visible side effects (fsync order), so hashed iteration there
# is just as sim-breaking as in core/.
STRICT_SCOPE = in_dirs("core/", "replica/", "sim/", "net/", "check/",
                       "storage/")


def strip_strings(code: str) -> str:
    """Blanks out string and char literals (keeps length unimportant)."""
    out = []
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if code[i] == "\\":
                    i += 2
                    continue
                if code[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def logical_lines(text: str) -> Iterable[tuple[int, str, str]]:
    """Yields (lineno, raw_line, code_only_line) with comments stripped.

    Tracks /* */ across lines.  The raw line is kept for waiver detection
    (waivers live inside comments).
    """
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_strings(raw)
        code = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            code.append(line[i])
            i += 1
        yield lineno, raw, "".join(code)


def _waiver_tokens(m: re.Match | None) -> set[str]:
    if not m:
        return set()
    toks = m.group(1).split()
    return {t[:-3] for t in toks if t.endswith("-ok")}


def waivers_on(raw_line: str) -> set[str]:
    return _waiver_tokens(WAIVER_RE.search(raw_line))


def file_waivers(text: str) -> set[str]:
    out: set[str] = set()
    for m in FILE_WAIVER_RE.finditer(text):
        out |= _waiver_tokens(m)
    return out


def declared_identifier(code: str, match_end: int) -> str | None:
    """After `unordered_map<`, skip the balanced template args and return the
    declared identifier, if this line is a declaration."""
    depth = 1
    i = match_end
    n = len(code)
    while i < n and depth > 0:
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
        i += 1
    if depth != 0:
        return None
    m = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;{=,)]", code[i:])
    return m.group(1) if m else None


def file_stem(path: str) -> str:
    """Directory + basename without extension: header/source pairs share it,
    so a member declared in foo.h is tracked when foo.cc iterates it —
    without leaking identically-named members from unrelated files."""
    root, _ = os.path.splitext(path)
    return root


def collect_unordered_names(files: list[str]) -> dict[str, set[str]]:
    """Maps each file stem to the unordered-container identifiers declared
    in that header/source pair."""
    names: dict[str, set[str]] = {}
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        for _, _, code in logical_lines(text):
            for m in UNORDERED_DECL_RE.finditer(code):
                ident = declared_identifier(code, m.end())
                if ident:
                    names.setdefault(file_stem(path), set()).add(ident)
    return names


def collect_enums(files: list[str]) -> dict[str, list[str]]:
    """Maps each `enum class` name found in the scanned set to its
    enumerator list (comments stripped, values ignored)."""
    enums: dict[str, list[str]] = {}
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        code = "\n".join(c for _, _, c in logical_lines(text))
        for m in ENUM_DEF_RE.finditer(code):
            open_brace = code.find("{", m.end())
            if open_brace < 0:
                continue
            close = code.find("}", open_brace)  # enum bodies don't nest
            if close < 0:
                continue
            body = code[open_brace + 1:close]
            names = []
            for piece in body.split(","):
                ident = re.match(r"\s*([A-Za-z_]\w*)", piece)
                if ident:
                    names.append(ident.group(1))
            if names:
                enums[m.group(1)] = names
    return enums


def check_dispatch(path: str, text: str,
                   enums: dict[str, list[str]]) -> list[Violation]:
    """dispatch-exhaustiveness for one file (see the module docstring)."""
    rel = src_relative(path)
    out: list[Violation] = []
    if "dispatch" in file_waivers(text):
        return out

    markers: list[tuple[int, str]] = []   # (line, enum name)
    ignored: dict[str, int] = {}          # token -> line it appears on
    referenced: dict[str, set[str]] = {}  # enum -> enumerators referenced
    for lineno, raw, code in logical_lines(text):
        for m in DISPATCH_MARKER_RE.finditer(raw):
            markers.append((lineno, m.group(1)))
        for m in DISPATCH_IGNORE_RE.finditer(raw):
            for tok in m.group(1).split():
                ignored.setdefault(tok, lineno)
        for m in re.finditer(r"\b([A-Za-z_]\w*)\s*::\s*(k\w+)", code):
            referenced.setdefault(m.group(1), set()).add(m.group(2))

    required = REQUIRED_DISPATCH_ROLES.get(rel)
    if required and required in enums and \
            not any(e == required for _, e in markers):
        out.append(Violation(
            path, 1, "dispatch-exhaustiveness",
            f"role file must carry `// lint-dispatch: {required}` — this is "
            "one of the protocol's dispatch surfaces and its coverage of "
            f"{required} is part of the analysis gates",
        ))

    known: set[str] = set()
    for marker_line, enum in markers:
        if enum not in enums:
            # Single-file runs may not see the defining header; the rule
            # only fires when the enum is inside the scanned set.
            continue
        enumerators = enums[enum]
        known.update(enumerators)
        refs = referenced.get(enum, set())
        for name in enumerators:
            if name in refs or name in ignored:
                continue
            out.append(Violation(
                path, marker_line, "dispatch-exhaustiveness",
                f"{enum}::{name} is neither handled in this file nor "
                "listed on a `dispatch-ignore:` line — a new message kind "
                "must be dispatched (or explicitly waived) in every role",
            ))
        for name in sorted(set(enumerators) & set(ignored) & refs):
            out.append(Violation(
                path, ignored[name], "dispatch-exhaustiveness",
                f"stale waiver: {enum}::{name} is on a dispatch-ignore list "
                "but IS referenced in this file — drop it from the list",
            ))
    if markers and any(e in enums for _, e in markers):
        for tok, lineno in sorted(ignored.items()):
            if tok not in known:
                out.append(Violation(
                    path, lineno, "dispatch-exhaustiveness",
                    f"dispatch-ignore token '{tok}' is not an enumerator of "
                    "any enum this file dispatches on — stale or misspelled",
                ))
    return out


def lint_file(path: str,
              unordered_names: dict[str, set[str]]) -> list[Violation]:
    rel = src_relative(path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"corona-lint: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    out: list[Violation] = []
    whole_file_waivers = file_waivers(text)
    pair_unordered = unordered_names.get(file_stem(path), set())
    prev_waivers: set[str] = set()
    iteration_scoped = STRICT_SCOPE(rel)
    # erase-in-range-for bookkeeping: which containers are currently driving
    # an enclosing range-for, tracked by brace depth.  `pending_for` holds a
    # loop whose body brace (or braceless statement) hasn't started yet.
    brace_depth = 0
    range_for_stack: list[tuple[str, int]] = []  # (ident, body depth)
    pending_for: str | None = None
    for lineno, raw, code in logical_lines(text):
        active_waivers = waivers_on(raw) | prev_waivers | whole_file_waivers
        # A waiver-only line waives the NEXT line; a code line's waiver
        # applies to itself only.
        prev_waivers = waivers_on(raw) if not code.strip() else set()

        if code.strip().startswith("#include"):
            continue

        for rule in RULES:
            if not rule.applies(rel):
                continue
            if rule.waiver in active_waivers:
                continue
            if rule.pattern.search(code):
                out.append(Violation(path, lineno, rule.name, rule.message))

        if iteration_scoped and "unordered" not in active_waivers:
            idents = {m.group(1) for m in RANGE_FOR_RE.finditer(code)}
            idents |= {m.group(1) for m in BEGIN_CALL_RE.finditer(code)}
            for ident in sorted(idents & pair_unordered):
                out.append(
                    Violation(
                        path,
                        lineno,
                        "unordered-iteration",
                        f"iterating over '{ident}', declared as an unordered "
                        "container; iteration order is nondeterministic — "
                        "use std::map/std::set or copy-and-sort first",
                    )
                )

        if iteration_scoped:
            fors = list(RANGE_FOR_RE.finditer(code))
            if "erase" not in active_waivers:
                active = {ident for ident, _ in range_for_stack}
                if pending_for is not None:
                    active.add(pending_for)
                for em in ERASE_CALL_RE.finditer(code):
                    ident = em.group(1)
                    enclosing = ident in active or any(
                        fm.group(1) == ident and fm.end() <= em.start()
                        for fm in fors
                    )
                    if enclosing:
                        out.append(
                            Violation(
                                path,
                                lineno,
                                "erase-in-range-for",
                                f"'{ident}.erase(...)' inside a range-for "
                                f"over '{ident}'; erasing invalidates the "
                                "loop's iterators — collect victims and "
                                "erase after the loop, or use an iterator "
                                "loop with the erase() return value",
                            )
                        )
            # Advance the loop tracker: a range-for becomes pending at its
            # header's end, binds to the next '{' (its body), and a pending
            # braceless body ends at the next ';'.
            fi = 0
            for pos, ch in enumerate(code):
                while fi < len(fors) and fors[fi].end() <= pos:
                    pending_for = fors[fi].group(1)
                    fi += 1
                if ch == "{":
                    brace_depth += 1
                    if pending_for is not None:
                        range_for_stack.append((pending_for, brace_depth))
                        pending_for = None
                elif ch == "}":
                    brace_depth -= 1
                    while range_for_stack and \
                            range_for_stack[-1][1] > brace_depth:
                        range_for_stack.pop()
                elif ch == ";" and pending_for is not None:
                    pending_for = None
            while fi < len(fors):
                pending_for = fors[fi].group(1)
                fi += 1
    return out


def gather_files(roots: list[str]) -> list[str]:
    files: list[str] = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        if not os.path.isdir(root):
            print(f"corona-lint: no such file or directory: {root}",
                  file=sys.stderr)
            sys.exit(2)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if os.path.splitext(name)[1] in CXX_EXTENSIONS:
                    files.append(os.path.join(dirpath, name))
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="corona-lint",
        description="determinism & concurrency lint for the corona tree",
    )
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)

    files = gather_files(args.paths)
    unordered_names = collect_unordered_names(files)
    enums = collect_enums(files)
    violations: list[Violation] = []
    for path in files:
        violations.extend(lint_file(path, unordered_names))
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                violations.extend(check_dispatch(path, f.read(), enums))
        except OSError:
            pass

    for v in violations:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if not args.quiet:
        print(
            f"corona-lint: {len(files)} files, {len(violations)} violation(s)",
            file=sys.stderr,
        )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
