"""Spans around the program's layer functions, installed from outside.

`from .network import forward` gives every importing module its own name
for the function, so a wrapper on hashnet.network.forward alone would miss
the trainer's calls.  Tracer.install() therefore replaces every binding of
each traced function in every hashnet module, and restore() puts the
originals back.

A span holds its name, start, end and the id of the span that was open
when it started.  Spans stay in memory until the benchmark writes them out.
"""

import contextlib
import importlib
import inspect
import json
import os
import time

MODULES = ("cli", "formats", "pretrain", "numerics", "network", "hashloss", "trainer", "index")

# Traced functions as "<defining module>.<function>".
FUNCTIONS = (
    "network.forward",
    "network.backward",
    "network.sgd_step",
    "hashloss.loss_terms",
    "hashloss.loss_grad",
    "hashloss.similarity_matrix",
    "trainer.train",
    "trainer.update_codes",
    "pretrain.pca_fit",
    "pretrain.itq",
    "numerics.sym_eig",
    "numerics.procrustes_rotation",
    "formats.read_features",
    "formats.read_labels",
    "formats.read_codes",
    "formats.load_model",
    "formats.save_model",
    "formats.write_codes",
    "index.pack",
    "index.search",
    "index.mean_average_precision",
)

COMMANDS = ("train", "encode", "search", "eval", "itq")

# Counts worked out from call arguments, not from timing; they repeat
# exactly for a fixed workload and seed.
COMPUTED = (
    ("trainer.steps", "count"),
    ("network.forward_flops", "flop"),
    ("index.scan_bytes", "B"),
    ("formats.bytes_read", "B"),
    ("formats.bytes_written", "B"),
)


def _forward_flops(a):
    per_sample = sum(layer.in_dim * layer.out_dim for layer in a["params"].layers)
    return 2 * per_sample * a["X"].shape[1]


def _scan_bytes(a):
    db = a["db"]
    return db.n * ((db.code_bytes + 7) // 8) * 8


def _file_size(a):
    return os.path.getsize(a["path"])


def _steps(a):
    return a["sched"].outer * a["sched"].inner


# name -> (counter, function of the call's bound arguments)
_BEFORE = {
    "trainer.train": ("trainer.steps", _steps),
    "network.forward": ("network.forward_flops", _forward_flops),
    "index.search": ("index.scan_bytes", _scan_bytes),
    "formats.read_features": ("formats.bytes_read", _file_size),
    "formats.read_labels": ("formats.bytes_read", _file_size),
    "formats.read_codes": ("formats.bytes_read", _file_size),
    "formats.load_model": ("formats.bytes_read", _file_size),
}
_AFTER = {
    "formats.save_model": ("formats.bytes_written", _file_size),
    "formats.write_codes": ("formats.bytes_written", _file_size),
}


class Tracer:
    """Records spans and computed counts in memory for one process."""

    def __init__(self):
        self.spans = []  # [name, parent id or None, start, end]
        self.counts = {name: 0 for name, _ in COMPUTED}
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        counts = self.counts
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if before or after:
                bound = signature.bind(*args, **kwargs).arguments
            if before:
                counts[before[0]] += before[1](bound)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after:
                counts[after[0]] += after[1](bound)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every binding of each FUNCTIONS entry in the package's modules."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        for name in FUNCTIONS:
            home, attr = name.split(".")
            original = getattr(modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules.values():
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def restore(self):
        for module, binding, original in reversed(self._saved):
            setattr(module, binding, original)
        self._saved.clear()

    def mark(self):
        """Position to pass to summary() for the spans recorded after now."""
        return len(self.spans), dict(self.counts)

    def span_times(self, sid):
        """(duration, summed duration of its direct children) of one span."""
        _, _, start, end = self.spans[sid]
        children = sum(e - b for _, parent, b, e in self.spans[sid + 1 :] if parent == sid)
        return end - start, children

    def summary(self, mark=(0, None)):
        """Per span name: summed self time, wall time and call count, and
        the computed counts, over what was recorded since mark."""
        first, counts_then = mark
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        out = {}
        for (name, parent, start, end), inner in zip(spans, child_time):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "wall_s": 0.0})
            entry["self_s"] += (end - start) - inner
            entry["wall_s"] += end - start
            entry["calls"] += 1
        counts = dict(self.counts)
        if counts_then is not None:
            counts = {k: v - counts_then[k] for k, v in counts.items()}
        return out, counts

    def write(self, path):
        with open(path, "w", encoding="ascii") as f:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                    "start": start, "end": end}) + "\n")

