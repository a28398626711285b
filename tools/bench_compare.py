#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against a checked-in baseline.

Usage:
    tools/bench_compare.py BASELINE.json FRESH.json [--max-regression 0.40]
        [--override NAME=FRAC ...]

For every benchmark present in both files the throughput (items_per_second
when reported, otherwise 1/real_time) is compared. The script exits non-zero
if any benchmark's throughput fell below baseline * (1 - max_regression), or
if a baseline entry is missing from the fresh run: a benchmark that is
renamed or deleted takes its baseline entry with it in the same change.

The default threshold is deliberately loose (40%): shared CI runners are
noisy and heterogeneous, so the gate is meant to catch structural
regressions (an accidental per-message allocation, a hot path falling off
its fast branch), not single-digit jitter. Local runs on a quiet machine can
tighten it with --max-regression.

Individual benchmarks with different noise profiles (wall-clock-dominated
parallel runs, sub-microsecond micro-benches) can carry their own threshold
via --override, repeatable, matched by exact name first and then by prefix:

    --override BM_ParallelEpoch=0.60 --override 'BM_Fanout/'=0.25

Even when every benchmark passes, the worst ratio is printed so a slow drift
across green runs stays visible in CI logs.
"""

from __future__ import annotations

import argparse
import json
import sys


def throughput(entry: dict) -> float | None:
    """Benchmark throughput in 'bigger is better' units, or None to skip."""
    if entry.get("run_type") == "aggregate":
        return None
    if "items_per_second" in entry:
        return float(entry["items_per_second"])
    real = float(entry.get("real_time", 0.0))
    return 1.0 / real if real > 0 else None


def load(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    out: dict[str, float] = {}
    for entry in data.get("benchmarks", []):
        value = throughput(entry)
        if value is not None:
            out[entry["name"]] = value
    return out


def parse_override(spec: str) -> tuple[str, float]:
    name, sep, frac = spec.rpartition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=FRAC, got {spec!r}")
    try:
        value = float(frac)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad fraction in {spec!r}") from err
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"fraction must be in [0, 1), got {spec!r}")
    return name, value


def tolerance_for(name: str, default: float, overrides: list[tuple[str, float]]) -> float:
    """Exact-name override wins; otherwise the longest matching prefix."""
    best: tuple[int, float] | None = None
    for pattern, frac in overrides:
        if name == pattern:
            return frac
        if name.startswith(pattern) and (best is None or len(pattern) > best[0]):
            best = (len(pattern), frac)
    return best[1] if best is not None else default


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("fresh", help="freshly generated JSON")
    parser.add_argument("--max-regression", type=float, default=0.40,
                        help="allowed fractional throughput drop (default 0.40)")
    parser.add_argument("--override", type=parse_override, action="append", default=[],
                        metavar="NAME=FRAC", dest="overrides",
                        help="per-benchmark allowed drop; exact name or prefix, repeatable")
    args = parser.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)
    if not fresh:
        print(f"error: no benchmarks found in {args.fresh}", file=sys.stderr)
        return 2

    failures = []
    worst: tuple[str, float] | None = None
    width = max((len(n) for n in fresh), default=0)
    for name in sorted(fresh):
        if name not in base:
            print(f"{name:<{width}}  NEW (no baseline entry)")
            continue
        ratio = fresh[name] / base[name]
        if worst is None or ratio < worst[1]:
            worst = (name, ratio)
        allowed = tolerance_for(name, args.max_regression, args.overrides)
        status = "ok"
        if ratio < 1.0 - allowed:
            status = "REGRESSION"
            failures.append((name, ratio, allowed))
        elif allowed != args.max_regression:
            status = f"ok (tolerance {allowed:.0%})"
        print(f"{name:<{width}}  baseline={base[name]:14.1f}  fresh={fresh[name]:14.1f}  "
              f"ratio={ratio:5.2f}x  {status}")
    missing = sorted(set(base) - set(fresh))
    for name in missing:
        print(f"{name:<{width}}  MISSING from fresh run")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed past their tolerance "
              f"vs {args.baseline}:", file=sys.stderr)
        for name, ratio, allowed in failures:
            print(f"  {name}: {ratio:.2f}x of baseline (allowed {1.0 - allowed:.2f}x)",
                  file=sys.stderr)
    if missing:
        print(f"\n{len(missing)} baseline entr{'y' if len(missing) == 1 else 'ies'} missing "
              f"from {args.fresh}; remove or rename them in {args.baseline}:", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
    if failures or missing:
        return 1
    compared = len(set(fresh) & set(base))
    print(f"\nall {compared} compared benchmarks within tolerance "
          f"(default {args.max_regression:.0%})")
    if worst is not None:
        print(f"worst: {worst[0]} at {worst[1]:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
