"""The names the benchmark in perfbench/ pins in the library.

perfbench/spans.py wraps the functions it lists by module and name, and
perfbench/workloads.py calls library functions with positional arguments.
These tests fail here, in the library's own suite, when a change renames,
deletes or reorders what the benchmark relies on.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import hashnet

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("name", SPANS.MODULES)
def test_traced_module_imports(name):
    importlib.import_module(f"hashnet.{name}")


@pytest.mark.parametrize("name", SPANS.FUNCTIONS)
def test_traced_function_resolves_to_a_callable(name):
    home, attr = name.split(".")
    assert home in SPANS.MODULES
    assert callable(getattr(importlib.import_module(f"hashnet.{home}"), attr, None)), name


# The argument names the tracer's computed counts read from a call.
COUNTED_ARGUMENTS = {
    "trainer.train": ("sched",),
    "network.forward": ("params", "X"),
    "index.search": ("db",),
    "formats.read_features": ("path",),
    "formats.read_labels": ("path",),
    "formats.read_codes": ("path",),
    "formats.load_model": ("path",),
    "formats.save_model": ("path",),
    "formats.write_codes": ("path",),
}


def test_counted_calls_name_the_arguments_the_tracer_reads():
    assert set(SPANS._BEFORE) | set(SPANS._AFTER) == set(COUNTED_ARGUMENTS)
    for name, arguments in COUNTED_ARGUMENTS.items():
        home, attr = name.split(".")
        fn = getattr(importlib.import_module(f"hashnet.{home}"), attr)
        assert set(arguments) <= set(inspect.signature(fn).parameters), name


# Calls perfbench/workloads.py and perfbench/probe.py make, as (module,
# function, the number of positional arguments they pass).
WORKLOAD_CALLS = [
    ("trainer", "update_codes", 3),  # (params, x, block)
    ("index", "search", 3),  # (db, query, k)
    ("index", "mean_average_precision", 3),  # (rankings, labels, db_labels)
    ("formats", "read_codes", 1),
    ("formats", "read_labels", 1),
    ("formats", "read_features", 1),
    ("formats", "load_model", 1),
    ("cli", "main", 1),
]


@pytest.mark.parametrize("home, attr, positional", WORKLOAD_CALLS)
def test_workload_library_calls_still_bind(home, attr, positional):
    fn = getattr(importlib.import_module(f"hashnet.{home}"), attr)
    inspect.signature(fn).bind(*range(positional))


def test_workloads_read_packed_codes_by_index():
    db = hashnet.pack([[1.0, -1.0]])
    assert db.n == 2 and db.code(1) == b"\x00"
