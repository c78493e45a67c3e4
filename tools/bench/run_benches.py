#!/usr/bin/env python3
"""Run the paper-reproduction benches and merge their --json metrics.

Runs fig3_roundtrip, table1_throughput, and table2_replicated from a build
tree, collects each binary's `--json` output, and writes one merged baseline
file (default: BENCH_socket_baseline.json in the repo root) keyed by bench
name.  Exit status is non-zero if any bench fails to run or emits no JSON.

Usage:
    tools/bench/run_benches.py [--build-dir build] [--out BENCH_socket_baseline.json]
    tools/bench/run_benches.py --compare BENCH_socket_baseline.json [--exact]

With --compare the freshly-measured metrics are checked against a recorded
baseline and the run fails (exit 1) if any direction-known metric regressed
beyond its threshold.  Metric direction is inferred from the key: *_ms /
*_pct / *slope* are lower-is-better, *per_sec* is higher-is-better, anything
else is reported informationally and never fails the run.

Thresholds are per-metric.  A baseline file may carry a top-level
`_thresholds` section mapping fnmatch patterns over "bench.metric" names to
a regression percentage; the longest (most specific) matching pattern wins:

    "_thresholds": {
      "ablation_batching.speedup_batch64_vs_1": 2.0,
      "ablation_batching.*": 10.0
    }

Metrics with no matching pattern fall back to --threshold (default 25).
The `_thresholds` section is not a bench: it is skipped when comparing and
carried over verbatim when --out records fresh numbers.  The baseline file
is left untouched in compare mode unless --out names a different path.

--exact (with --compare) is for benches that run in virtual time on the
deterministic simulator, where a rerun reproduces every number: each
numeric metric of each compared bench must equal its recorded value, in
either direction and whatever its name, and a metric present on only one
side is a mismatch too.  `_thresholds` is ignored.

The google-benchmark micro benches (micro_codec, micro_shared_state) run
only when --benches names them.  Each runs every benchmark it holds
MICRO_REPETITIONS times and records, per benchmark, the median and
quartiles of the repetitions' CPU time in ns (e.g. BENCH_layers.json):

    tools/bench/run_benches.py --benches micro_codec,micro_shared_state \
        --out BENCH_layers.json

Their numbers are wall-clock, so --compare prints them with their ratio
and never fails on them.
"""

import argparse
import fnmatch
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCHES = [
    "fig3_roundtrip",
    "table1_throughput",
    "table2_replicated",
    "ablation_batching",
    "ablation_durability",
]

# Google-benchmark binaries: informational wall-clock layer costs.
MICROS = ["micro_codec", "micro_shared_state"]
MICRO_REPETITIONS = 10

# Reserved top-level baseline key holding per-metric thresholds, not metrics.
THRESHOLDS_KEY = "_thresholds"

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def find_binary(build_dir: str, name: str) -> str:
    candidates = [
        os.path.join(build_dir, "bench", name),
        os.path.join(build_dir, "bin", name),
        os.path.join(build_dir, name),
    ]
    for path in candidates:
        if os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    raise FileNotFoundError(
        f"bench binary '{name}' not found under {build_dir} "
        f"(tried: {', '.join(candidates)}); build the 'bench' targets first"
    )


def run_bench(binary: str, timeout_s: int) -> dict:
    with tempfile.NamedTemporaryFile(
        mode="r", suffix=".json", prefix="corona_bench_", delete=False
    ) as tmp:
        tmp_path = tmp.name
    try:
        proc = subprocess.run(
            [binary, "--json", tmp_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=timeout_s,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError(f"{binary} exited with status {proc.returncode}")
        with open(tmp_path, "r", encoding="utf-8") as f:
            return json.load(f)
    finally:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass


def run_micro(binary: str, timeout_s: int) -> dict:
    proc = subprocess.run(
        [binary, "--benchmark_format=json",
         f"--benchmark_repetitions={MICRO_REPETITIONS}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout_s,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{binary} exited with status {proc.returncode}")
    return summarize_micro(json.loads(proc.stdout))


def summarize_micro(report: dict) -> dict:
    """Median and quartiles of each benchmark's per-repetition CPU time, in
    ns, from a google-benchmark JSON report (aggregate rows are skipped)."""
    samples = {}
    for row in report.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        ns = row["cpu_time"] * NS_PER_UNIT[row.get("time_unit", "ns")]
        samples.setdefault(row.get("run_name", row["name"]), []).append(ns)
    metrics = {}
    for name, values in sorted(samples.items()):
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4,
                                                  method="inclusive")
        else:
            q1 = median = q3 = values[0]
        metrics[f"{name}.median_ns"] = median
        metrics[f"{name}.q1_ns"] = q1
        metrics[f"{name}.q3_ns"] = q3
        metrics[f"{name}.repetitions"] = len(values)
    return metrics


def report_micro(bench: str, old_metrics: dict, new_metrics: dict) -> None:
    """Prints each median a micro bench shares with the baseline, with the
    ratio new/old; never a failure."""
    for key in sorted(set(old_metrics) & set(new_metrics)):
        old, new = old_metrics[key], new_metrics[key]
        if not key.endswith(".median_ns") or not is_number(old) or \
                not is_number(new) or old <= 0:
            continue
        print(f"[compare] informational {bench}.{key}: {old:g} -> {new:g} "
              f"({new / old:.2f}x)")


def metric_direction(key: str) -> str | None:
    """'lower' / 'higher' when the key names a known-direction metric."""
    if "per_sec" in key or "speedup" in key:
        return "higher"
    if key.endswith("_ms") or "_ms" in key or "_pct" in key or "slope" in key:
        return "lower"
    return None


def threshold_for(
    bench: str, key: str, thresholds: dict, default_pct: float
) -> float:
    """Most-specific (longest) fnmatch pattern over 'bench.metric' wins."""
    name = f"{bench}.{key}"
    best_pattern = None
    for pattern in thresholds:
        if fnmatch.fnmatchcase(name, pattern):
            if best_pattern is None or len(pattern) > len(best_pattern):
                best_pattern = pattern
    if best_pattern is None:
        return default_pct
    return float(thresholds[best_pattern])


def compare_metrics(
    baseline: dict, fresh: dict, threshold_pct: float, thresholds: dict
) -> int:
    """Prints a per-metric comparison; returns the regression count."""
    regressions = 0
    for bench in sorted(set(baseline) | set(fresh)):
        if bench == THRESHOLDS_KEY:
            continue
        if bench not in baseline or bench not in fresh:
            side = "baseline" if bench in baseline else "fresh run"
            print(f"[compare] {bench}: only in {side} — skipped")
            continue
        old_metrics, new_metrics = baseline[bench], fresh[bench]
        if bench in MICROS:
            report_micro(bench, old_metrics, new_metrics)
            continue
        for key in sorted(set(old_metrics) | set(new_metrics)):
            if key not in old_metrics or key not in new_metrics:
                print(f"[compare] {bench}.{key}: metric "
                      f"{'removed' if key not in new_metrics else 'added'} — "
                      "informational")
                continue
            old, new = old_metrics[key], new_metrics[key]
            if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
                continue
            direction = metric_direction(key)
            if direction is None or abs(old) < 1e-9:
                continue
            metric_threshold = threshold_for(bench, key, thresholds, threshold_pct)
            delta_pct = (new - old) / abs(old) * 100.0
            regressed = (
                delta_pct > metric_threshold
                if direction == "lower"
                else -delta_pct > metric_threshold
            )
            if regressed:
                regressions += 1
                print(f"[compare] REGRESSION {bench}.{key}: "
                      f"{old:g} -> {new:g} ({delta_pct:+.1f}%, "
                      f"{direction}-is-better, threshold {metric_threshold:g}%)")
            elif abs(delta_pct) > metric_threshold:
                # Large move in the *good* direction: worth a line, not a
                # failure (often a machine/load artifact).
                print(f"[compare] improved   {bench}.{key}: "
                      f"{old:g} -> {new:g} ({delta_pct:+.1f}%)")
    return regressions


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_exact(baseline: dict, fresh: dict) -> int:
    """Prints every numeric metric that differs from its recorded value;
    returns the mismatch count.  Benches run on only one side are skipped
    (--benches may select a subset of a baseline file)."""
    mismatches = 0
    for bench in sorted(set(baseline) | set(fresh)):
        if bench == THRESHOLDS_KEY:
            continue
        if bench not in baseline or bench not in fresh:
            side = "baseline" if bench in baseline else "fresh run"
            print(f"[compare] {bench}: only in {side} — skipped")
            continue
        old_metrics, new_metrics = baseline[bench], fresh[bench]
        if bench in MICROS:
            report_micro(bench, old_metrics, new_metrics)
            continue
        for key in sorted(set(old_metrics) | set(new_metrics)):
            old, new = old_metrics.get(key), new_metrics.get(key)
            if not is_number(old) and not is_number(new):
                continue
            if is_number(old) and is_number(new) and old == new:
                continue
            mismatches += 1
            print(f"[compare] MISMATCH {bench}.{key}: recorded {old}, "
                  f"measured {new}")
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--build-dir",
        default=os.path.join(repo_root(), "build"),
        help="CMake build tree holding the bench binaries (default: ./build)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="merged output path (default: BENCH_socket_baseline.json when "
        "recording; in --compare mode nothing is written unless --out is "
        "given explicitly)",
    )
    parser.add_argument(
        "--timeout",
        type=int,
        default=1800,
        help="per-bench timeout in seconds (default: 1800)",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE_JSON",
        help="compare fresh metrics against this recorded baseline and fail "
        "on regressions instead of (re)writing it",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="with --compare: every numeric metric must equal the recorded "
        "value exactly (for virtual-time benches); _thresholds is ignored",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="fallback regression threshold in percent for --compare when no "
        "baseline `_thresholds` pattern matches (default: 25)",
    )
    parser.add_argument(
        "--benches",
        metavar="NAME[,NAME...]",
        help="comma-separated subset of benches to run, micro benches "
        f"({','.join(MICROS)}) included (default: {','.join(BENCHES)})",
    )
    args = parser.parse_args()
    if args.exact and not args.compare:
        parser.error("--exact needs --compare BASELINE_JSON")

    benches = BENCHES
    if args.benches:
        benches = [b.strip() for b in args.benches.split(",") if b.strip()]
        unknown = [b for b in benches if b not in BENCHES + MICROS]
        if unknown:
            raise RuntimeError(
                f"unknown bench(es): {', '.join(unknown)} "
                f"(known: {', '.join(BENCHES + MICROS)})"
            )

    baseline = None
    thresholds = {}
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as f:
            baseline = json.load(f)
        thresholds = baseline.get(THRESHOLDS_KEY, {})

    merged = {}
    for name in benches:
        binary = find_binary(args.build_dir, name)
        print(f"[run_benches] running {name} ...", flush=True)
        if name in MICROS:
            bench_key, metrics = name, run_micro(binary, args.timeout)
        else:
            result = run_bench(binary, args.timeout)
            bench_key = result.get("bench", name)
            metrics = {k: v for k, v in result.items() if k != "bench"}
        if not metrics:
            raise RuntimeError(f"{name} emitted an empty metrics object")
        merged[bench_key] = metrics
        print(f"[run_benches]   {len(metrics)} metrics", flush=True)

    if baseline is not None:
        if args.exact:
            regressions = compare_exact(baseline, merged)
        else:
            regressions = compare_metrics(baseline, merged, args.threshold,
                                          thresholds)
        # Compare mode never clobbers a baseline implicitly; an explicit
        # --out (different from the compared file) records the fresh
        # numbers, with the baseline's thresholds carried over.
        if args.out and os.path.abspath(args.out) != os.path.abspath(
                args.compare):
            if thresholds:
                merged[THRESHOLDS_KEY] = thresholds
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(merged, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"[run_benches] wrote {args.out} ({len(merged)} benches)")
        if regressions and args.exact:
            print(f"[run_benches] FAIL: {regressions} metric(s) differ from "
                  "the recorded value")
            return 1
        if regressions:
            print(f"[run_benches] FAIL: {regressions} metric(s) regressed "
                  "beyond threshold")
            return 1
        if args.exact:
            print("[run_benches] compare OK: every metric equals its "
                  "recorded value")
            return 0
        print("[run_benches] compare OK: no metric regressed beyond its "
              f"threshold (fallback {args.threshold:g}%)")
        return 0

    if args.out is None:
        args.out = os.path.join(repo_root(), "BENCH_socket_baseline.json")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[run_benches] wrote {args.out} ({len(merged)} benches)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"[run_benches] error: {err}\n")
        sys.exit(1)
