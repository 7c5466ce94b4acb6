"""Run one hashnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline|knn|rank|all --seed N
                             [--seconds S] [--trace 0|1] [--size full|tiny]

Run from the root of a checkout holding src/hashnet.  The benchmark writes
the workload's inputs from --seed into .perfbench/ under the checkout,
times set-up in fresh processes, measures in a worker process that calls
hashnet.cli.main(argv) in-process, and checks every output against its own
oracles.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a run whose traced repetitions
alternate with untraced ones.  The full record (machine, every named
figure, checks) goes to .perfbench/<workload>-seed<N>-trace<T>.json and the
spans of a traced run to .perfbench/<workload>-seed<N>.spans.jsonl.

Exit codes: 0 all outputs correct, 1 an output check failed, 2 the
benchmark could not run (no result is printed).  README.md in this
directory describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

BLAS_THREADS = env.pin_blas_threads()  # before numpy is imported

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
# The worker may overrun --seconds by the repetition it is in, plus one
# more to end a traced run on a traced repetition.
WORKER_SLACK_S = 120
MAX_FAILURES_SHOWN = 10
# A traced command's span may differ from the wall measured around the
# call by this share of the wall plus SPAN_SLACK_S.
SPAN_TOLERANCE = 0.01
SPAN_SLACK_S = 1e-3

END_TO_END_UNITS = {
    "cmd_s": "s", "rate_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child(argv, timeout):
    """Run a child process to completion; return its last stdout line."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(argv[1]).name} ran past {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{Path(argv[1]).name} exited with code {proc.returncode}")
    return lines[-1]


def measure_setup(w, work):
    """Median seconds from starting a fresh process to hashnet being
    imported and, where the workload names one, its code file loaded."""
    argv = [sys.executable, str(HERE / "probe.py"), str(SRC)]
    if w.SETUP_CODES:
        argv.append(str(work / w.SETUP_CODES))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        ready = json.loads(child(argv, PROBE_TIMEOUT_S))["ready"]
        times.append(ready - t0)
    return statistics.median(times), times


def per_layer(reps):
    """Per-layer metrics: medians over the traced repetitions of each
    function's self time; calls and computed counts of one repetition."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]

    def med(name, key):
        return statistics.median(r["spans"].get(name, {}).get(key, 0.0) for r in traced)

    out = {}
    for name in spans.FUNCTIONS:
        out[f"{name}.self_s"] = (med(name, "self_s"), "s")
        out[f"{name}.calls"] = (traced[0]["spans"].get(name, {}).get("calls", 0), "count")
    for cmd in spans.COMMANDS:
        out[f"cli.{cmd}.self_s"] = (med(f"cli.{cmd}", "self_s"), "s")
    for name, unit in spans.COMPUTED:
        out[name] = (traced[0]["counts"][name], unit)

    def rep_wall(r):
        return sum(op["wall_s"] for op in r["ops"])

    out["trace.traced_s"] = (statistics.median(map(rep_wall, traced)), "s")
    out["trace.untraced_s"] = (statistics.median(map(rep_wall, untraced)), "s")
    return out


def accounting(reps):
    """Per traced command label, summed over the traced repetitions: the
    wall measured around the call, the command's span, and the time in its
    top-level layer spans.  Also, as failures, each traced call whose span
    does not match its wall or whose top-level spans add up to more."""
    rows, failures = {}, []
    for r in reps:
        for op in r["ops"]:
            if "span_s" not in op:
                continue
            wall, span, children = op["wall_s"], op["span_s"], op["children_s"]
            row = rows.setdefault(op["label"], [0.0, 0.0, 0.0])
            row[0] += wall
            row[1] += span
            row[2] += children
            if abs(span - wall) > SPAN_TOLERANCE * wall + SPAN_SLACK_S or children > wall:
                failures.append(f"traced {op['label']}: wall {wall:.6f} s, span {span:.6f} s, "
                                f"top-level spans {children:.6f} s do not add up")
    return rows, failures


def run_workload(name, seed, seconds, trace, size_name):
    w = workloads.WORKLOADS[name]
    size = w.SIZES[size_name]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
    work.mkdir()
    try:
        t0 = time.perf_counter()
        w.generate(work, seed, size)
        gen_s = time.perf_counter() - t0
        setup_s, setup_samples = measure_setup(w, work)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                "--work", str(work), "--src", str(SRC), "--size", size_name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--spans", str(spans_path)]
        result = json.loads(child(argv, seconds + WORKER_SLACK_S))
        with np.load(work / "library_results.npz") as lib:
            result["library_results"] = {k: lib[k] for k in lib.files}
        reps = result["reps"]
        failures = [f"{name} {op['label']} exited with code {op['rc']}"
                    for r in reps for op in r["ops"] if op["rc"] != 0]
        if not failures:
            try:
                failures += w.check(work, size, result)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failures.append(f"{name} outputs could not be checked: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        rows, unaccounted = accounting(reps)
        failures += unaccounted
    attempted = sum(len(r["ops"]) for r in reps) + len(result["library_latency_s"])
    record = {
        "workload": name, "seed": seed, "size": size_name, "seconds": seconds,
        "trace": trace, "repetitions": len(reps),
        "env": env.record(ROOT, SRC, seed, BLAS_THREADS),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "gen_s": gen_s, "setup_samples_s": setup_samples,
    }
    if trace:
        metrics = per_layer(reps)
        record["accounting"] = rows
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        named = w.named(result, size)
        walls = workloads.walls(result, w.MAIN)
        p50, tail, pct = workloads.latency(result["library_latency_s"])
        n_lat = len(result["library_latency_s"])
        named[f"{w.LATENCY}_p50_ms"] = (p50, "ms")
        named[f"{w.LATENCY}_tail_ms"] = (tail, f"ms ({pct} of {n_lat})")
        named["setup_s"] = (setup_s, f"s (median of {SETUP_PROBES})")
        named["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        metrics = {
            "cmd_s": statistics.median(walls),
            "rate_per_s": named[w.RATE][0],
            "p50_ms": p50,
            "tail_ms": tail,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        record["named"] = named
        record["main_command_walls_s"] = walls
        record["library_latency_s"] = result["library_latency_s"]
    record["metrics"] = metrics
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="ascii") as f:
        json.dump(record, f, indent=1, default=float)
    return record


def print_record(rec):
    print(f"env {json.dumps(rec['env'], sort_keys=True)}")
    print(f"workload {rec['workload']} seed {rec['seed']} size {rec['size']} "
          f"trace {rec['trace']}: {rec['repetitions']} repetitions, "
          f"{rec['attempted']} operations, input generation {rec['gen_s']:.3f} s "
          f"(not part of setup_s)")
    if rec["trace"]:
        for label, (wall, span, covered) in sorted(rec["accounting"].items()):
            print(f"  {label}: wall {wall:.4f} s measured around the call, span {span:.4f} s; "
                  f"top-level layer spans {covered:.4f} s + self {wall - covered:.4f} s "
                  f"({100 * covered / wall:.1f}% in spans)")
        overhead = rec["metrics"]["trace.traced_s"][0] - rec["metrics"]["trace.untraced_s"][0]
        print(f"  tracing overhead (traced - untraced repetition wall): {overhead:+.4f} s")
        print(f"  spans written to {rec['spans_file']}")
        print("  computed counts: " + ", ".join(
            f"{n} {rec['metrics'][n][0]} {u}" for n, u in spans.COMPUTED))
        m = rec["metrics"]
        busy = sorted((v, n[: -len(".self_s")]) for n, (v, _) in m.items()
                      if n.endswith(".self_s") and v > 0)
        for v, n in reversed(busy):
            calls = m.get(f"{n}.calls", (None,))[0]
            print(f"  {n}.self_s {v:.6f} s" + ("" if calls is None else f", {calls} calls"))
    else:
        for n, (v, u) in rec["named"].items():
            print(f"  {n} {v:.6g} {u}")
    for f in rec["failures"][:MAX_FAILURES_SHOWN]:
        print(f"  FAILED: {f}")
    if len(rec["failures"]) > MAX_FAILURES_SHOWN:
        print(f"  ... {len(rec['failures']) - MAX_FAILURES_SHOWN} more failed checks "
              f"in the record file")


def summary_line(records):
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}."
        for n, (v, u) in rec["metrics"].items():
            metrics[prefix + n] = {"value": v, "unit": u}
    return json.dumps({
        "correct": all(not r["failures"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35,
                   help="how long the repetitions run (BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs each workload at toy sizes, for the tests")
    args = p.parse_args()
    if not (SRC / "hashnet" / "__init__.py").is_file():
        print(f"error: no hashnet sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace, args.size))
            print_record(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary_line(records))
    return 0 if all(not r["failures"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
