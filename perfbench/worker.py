"""Measuring process for one workload run, started by run.py.

    python3 worker.py --workload NAME --work DIR --src DIR --size full|tiny
                      --seed N --seconds S --trace 0|1 [--spans FILE]

Imports hashnet from --src and calls hashnet.cli.main(argv) in this
process.  It repeats the workload's CLI commands until --seconds have
passed (and at least the workload's minimum).  The workload's library
loop starts after its LIB_AFTER command (at once when that is None) and
then runs LIB_CALLS_PER_COMMAND calls after every CLI command, until its
fixed number of calls is done, so that the library latencies sample the whole
run and not one stretch of it.  With --trace 1 the repetitions alternate
untraced and traced, and no library loop runs.  The last line of stdout
is one JSON object that run.py reads.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

# Library calls run after each CLI command.  Few enough that the calls are
# spread over many commands, and so over the whole run.
LIB_CALLS_PER_COMMAND = 5


class Context:
    def __init__(self, hashnet, work, size, seed, tracer):
        self.hashnet = hashnet
        self.work = work
        self.size = size
        self.seed = seed
        self.tracer = tracer
        self.tracing = False
        self.ops = []
        self.extra = {}
        self.after_command = None

    def cli(self, label, argv):
        """Run one CLI command in-process; returns its captured stdout."""
        argv = [str(a) for a in argv]
        buf = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracing else contextlib.nullcontext()
        sid = len(self.tracer.spans)
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(buf):
                rc = self.hashnet.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - t0
        op = {"label": label, "wall_s": wall, "rc": rc}
        if self.tracing:
            op["span_s"], op["children_s"] = self.tracer.span_times(sid)
        self.ops.append(op)
        if self.after_command:
            self.after_command(label)
        return buf.getvalue()


class LibraryLoop:
    """The workload's library calls, a fixed number of them, run a few at
    a time between CLI commands."""

    def __init__(self, fn, calls, checked):
        self.fn, self.calls, self.checked = fn, calls, checked
        self.samples, self.kept = [], []
        for args in calls[:3]:  # warm-up
            fn(*args)

    def run(self, count=None):
        """Time the next `count` calls (all that are left when None)."""
        done = len(self.samples)
        stop = len(self.calls) if count is None else min(len(self.calls), done + count)
        for args in self.calls[done:stop]:
            t0 = time.perf_counter()
            result = self.fn(*args)
            self.samples.append(time.perf_counter() - t0)
            if len(self.kept) < self.checked:
                self.kept.append(result)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--src", required=True, type=Path)
    p.add_argument("--size", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--spans", type=Path)
    args = p.parse_args()

    sys.path.insert(0, str(args.src))
    import hashnet
    import hashnet.cli

    if Path(hashnet.__file__).resolve().parent != (args.src / "hashnet").resolve():
        sys.exit(f"imported hashnet from {hashnet.__file__}, not from {args.src}")

    w = WORKLOADS[args.workload]
    tracer = Tracer()
    ctx = Context(hashnet, args.work, w.SIZES[args.size], args.seed, tracer)
    reps, lib = [], None

    def after_command(label):
        nonlocal lib
        if lib is None:
            if w.LIB_AFTER not in (None, label):
                return
            lib = LibraryLoop(*w.library(ctx), ctx.size["checked"])
        lib.run(LIB_CALLS_PER_COMMAND)

    if not args.trace:
        ctx.after_command = after_command
    start = time.perf_counter()
    i = 0
    while True:
        ctx.tracing = bool(args.trace) and i % 2 == 1
        ctx.ops = []
        if ctx.tracing:
            tracer.install(hashnet)
            mark = tracer.mark()
        try:
            rep = w.rep(ctx, i)
        finally:
            tracer.restore()
        rep.update(ops=ctx.ops, traced=ctx.tracing)
        if ctx.tracing:
            spans, counts = tracer.summary(mark)
            rep.update(spans=spans, counts=counts)
        reps.append(rep)
        i += 1
        if time.perf_counter() - start >= args.seconds and i >= w.MIN_REPS:
            if not args.trace or i % 2 == 0:
                break
    if lib:
        lib.run()

    if args.spans and args.trace:
        tracer.write(args.spans)
    np.savez(args.work / "library_results.npz", **(w.keep(lib.kept) if lib else {}))
    print(json.dumps({
        "reps": reps,
        "library_latency_s": lib.samples if lib else [],
        "extra": ctx.extra,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
