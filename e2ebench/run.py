#!/usr/bin/env python3
"""End-to-end benchmark of the Dynamoth simulator.

Builds the e2ebench driver from the repository's sources, runs one workload
for a fixed host-time budget, checks the outputs, and prints the metrics as
one JSON object on the last line of standard output.

  python3 e2ebench/run.py --workload paper-ramp --seed 77 --seconds 30 --trace 0
  python3 e2ebench/run.py --smoke

--trace 0 repeats the untraced workload until --seconds have passed (at
least twice) and reports the end-to-end metrics: medians for host costs, the
simulated system's numbers (identical across repeats by construction).
--trace 1 runs the workload once untraced and once traced and reports the
per-layer metrics, the layer ledger and the tracing overhead.
--smoke runs every workload, untraced and traced, at shortened simulated
durations and checks that every metric named in BENCHMARK.json is present
and finite and that each ledger sums to 1.

Checks (any failure marks the run incorrect and exits non-zero): the
fingerprint (executed events, RNG draws, publications, digest of the sampled
series) is identical across every repeat and between the traced and the
untraced run; echoes never exceed publications; every metric is finite.
The benchmark's operations are workload runs: `attempted` counts the runs
made, `failed` those that failed a check. Publications whose echo never
arrives are a property of the simulated system, gated by publish_ok_ratio.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-ramp", "elastic-day", "cohort-sharded")
# Printed beside the gated metrics of BENCHMARK.json but not gated: on
# elastic-day the response-time tail and the failure share are bimodal across
# seeds (see manifest.json).
REPORTED_UNITS = {
    "rt_p90_ms": "ms",
    "rt_p95_ms": "ms",
    "rt_p99_ms": "ms",
    "publish_fail_ratio": "ratio",
    "host_cpu_share": "ratio",
}
FINGERPRINT_KEYS = ("executed_events", "rng_draws", "total_updates", "series_digest")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2ebench")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")  # keeps the compiler's temporary files in the build tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "e2ebench", "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
            if proc.returncode != 0:
                log("e2ebench: build failed: " + " ".join(cmd))
                return None
    binary = os.path.join(out, "e2ebench")
    return binary if os.path.exists(binary) else None


def run_driver(binary, workload, seed, traced=False, smoke=False):
    cmd = [binary, "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_run(r, gated):
    """Per-run consistency checks; returns a list of violations."""
    bad = []
    if r["echoes"] > r["publications"]:
        bad.append(f"echoes {r['echoes']} exceed publications {r['publications']}")
    if r["rt_samples"] != r["echoes"]:
        bad.append("response-time samples differ from echoes")
    for key in gated + list(REPORTED_UNITS):
        if not finite(r.get(key)):
            bad.append(f"{key} missing or not finite")
    if not 0 < r["rt_p50_ms"] <= r["rt_p90_ms"] <= r["rt_p95_ms"] <= r["rt_p99_ms"]:
        bad.append("response-time percentiles out of order")
    for key, value in r.get("layers", {}).items():
        if not finite(value):
            bad.append(f"layer metric {key} not finite")
    ledger = r.get("ledger")
    if ledger is not None:
        if not all(finite(v) for v in ledger.values()):
            bad.append("ledger share not finite")
        elif abs(sum(ledger.values()) - 1.0) > 1e-9:
            bad.append(f"ledger shares sum to {sum(ledger.values())}")
    return bad


def fingerprint(r):
    return tuple(r["fingerprint"][k] for k in FINGERPRINT_KEYS)


def describe(r, elapsed):
    f = r["fingerprint"]
    return (
        f"  {r['workload']} seed {r['seed']}{' traced' if r['traced'] else ''}: "
        f"{elapsed:.1f} s | host {r['host_ms_per_sim_s']:.3f} ms/sim-s, "
        f"cpu share {r['host_cpu_share']:.3f}, setup {r['setup_s'] * 1e3:.3f} ms, "
        f"rss {r['peak_rss_mib']:.1f} MiB | publications {r['publications']}, "
        f"echoes {r['echoes']} (fail {r['publish_fail_ratio']:.4f}), "
        f"rt p50 {r['rt_p50_ms']:.1f} / p99 {r['rt_p99_ms']:.1f} ms "
        f"over {r['rt_samples']} samples, "
        f"max players ok {r['max_players_ok']:.0f}, server-hours {r['server_hours']:.4f} | "
        f"events {f['executed_events']} draws {f['rng_draws']} digest {f['series_digest']}"
    )


def measure(binary, bench, workload, seed, seconds, traced, smoke=False):
    """Runs the workload; returns (untraced runs, traced run or None, violations)."""
    runs, violations = [], []
    start = time.monotonic()
    while True:
        r, elapsed = run_driver(binary, workload, seed, smoke=smoke)
        log(describe(r, elapsed))
        runs.append(r)
        spent = time.monotonic() - start
        if traced or smoke:
            break
        if len(runs) >= 2 and spent + spent / len(runs) > seconds:
            break
    traced_run = None
    if traced:
        traced_run, elapsed = run_driver(binary, workload, seed, traced=True, smoke=smoke)
        log(describe(traced_run, elapsed))
    gated = [m["name"] for m in bench["end_to_end"]]
    for r in runs + ([traced_run] if traced_run else []):
        violations += [f"{workload}: {v}" for v in check_run(r, gated)]
        if fingerprint(r) != fingerprint(runs[0]):
            violations.append(
                f"{workload}: fingerprint {fingerprint(r)} differs from {fingerprint(runs[0])}"
            )
    return runs, traced_run, violations


def e2e_metrics(runs):
    """Host costs as medians over the repeats; the simulated system's numbers
    are identical across repeats (the fingerprint check enforces it)."""
    values = dict(runs[0])
    for key in ("host_ms_per_sim_s", "setup_s", "peak_rss_mib", "host_cpu_share"):
        values[key] = statistics.median(r[key] for r in runs)
    return values


def summary(runs, values, bench):
    """Human-readable report of every end-to-end number, one per line."""
    r = runs[0]
    lines = [f"== {r['workload']} seed {r['seed']}: {len(runs)} runs, "
             f"{r['sim_s']:.0f} sim-s each =="]
    for m in bench["end_to_end"]:
        lines.append(f"{m['name']:<20} {values[m['name']]:>14.6g} {m['unit']}")
    for key, unit in REPORTED_UNITS.items():
        lines.append(f"{key:<20} {values[key]:>14.6g} {unit}  (reported, not gated)")
    lines.append(f"{'operations':<20} {r['publications']:>14} publications, "
                 f"{r['publications'] - r['echoes']} without echo, "
                 f"{r['rt_samples']} response-time samples")
    lines.append("fingerprint          " + " ".join(
        f"{k}={r['fingerprint'][k]}" for k in FINGERPRINT_KEYS))
    return "\n".join(lines)


def layer_values(untraced, traced):
    """Per-layer metrics of a traced run, with the ledger and the tracing
    overhead (traced minus untraced host cost of the same workload)."""
    values = dict(traced["layers"])
    for layer, share in traced["ledger"].items():
        values["ledger." + layer] = share
    values["obs.tracing_overhead"] = traced["host_ms_per_sim_s"] - untraced["host_ms_per_sim_s"]
    values["host.cpu_share"] = traced["host_cpu_share"]
    return values


def ledger_text(traced):
    lines = [f"== ledger: {traced['workload']} seed {traced['seed']}, estimated self time "
             "as a share of the timed run =="]
    lines += [f"{layer:<20} {share:8.4f}" for layer, share in traced["ledger"].items()]
    return "\n".join(lines)


def save_trace(traced):
    """Writes the traced run's host-time spans and control-plane counts."""
    out = os.path.join(build_dir(), "traces")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{traced['workload']}-seed{traced['seed']}.json")
    with open(path, "w") as f:
        json.dump({"spans": traced["spans"], "control_plane": traced["control_plane"]}, f)
    log(f"  spans and control-plane counts -> {os.path.relpath(path, ROOT)}")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_block(values, specs):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def smoke(binary, bench):
    problems, attempted = [], 0
    for workload in WORKLOADS:
        runs, traced, violations = measure(binary, bench, workload, None, 0, True, smoke=True)
        attempted += len(runs) + 1
        problems += violations
        groups = ((e2e_metrics(runs), bench["end_to_end"]),
                  (layer_values(runs[0], traced), bench["per_layer"]))
        for values, specs in groups:
            for m in specs:
                if not finite(values.get(m["name"])):
                    problems.append(f"{workload}: metric {m['name']} missing or not finite")
        print(summary(runs, e2e_metrics(runs), bench))
        print(ledger_text(traced))
    for p in problems:
        log("SMOKE FAIL: " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": min(attempted, len(problems)), "metrics": {}}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    bench = spec()
    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary, bench)

    try:
        runs, traced, violations = measure(binary, bench, args.workload, args.seed,
                                           args.seconds, args.trace == 1)
    except (RuntimeError, ValueError, KeyError) as err:
        log(f"e2ebench: {err}")
        return 1
    print(summary(runs, e2e_metrics(runs), bench))
    if traced:
        print(ledger_text(traced))
        save_trace(traced)
        metrics = metric_block(layer_values(runs[0], traced), bench["per_layer"])
    else:
        metrics = metric_block(e2e_metrics(runs), bench["end_to_end"])
    for v in violations:
        log("CHECK FAIL: " + v)
    attempted = len(runs) + (1 if traced else 0)
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": min(attempted, len(violations)), "metrics": metrics}))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
