"""Tests of the benchmark itself: tiny runs of every workload, the oracles
on hand-built cases with ties, the generators' seeding, and the tracer.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run as run_module  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expect = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expect
    if trace == "0":
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_spans_account_for_command_wall():
    proc = run("--workload", "pipeline", "--seed", "4", "--seconds", "0.2",
               "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((ROOT / ".perfbench" / "pipeline-seed4-trace1.json").read_text())
    assert set(record["accounting"]) == {"train", "encode", "encode_q", "eval", "itq"}
    for wall, span, covered in record["accounting"].values():
        assert 0 < covered <= span <= wall
    assert record["failures"] == []
    metrics = record["metrics"]
    assert metrics["trainer.steps"][0] == 7  # one outer round of ceil(4 * 400 / 256)
    assert metrics["trainer.train.calls"][0] == 1
    assert metrics["numerics.procrustes_rotation.calls"][0] == 2 * workloads.ITQ_ITERS
    span_lines = (ROOT / record["spans_file"]).read_text().splitlines()
    first = json.loads(span_lines[0])
    assert set(first) == {"id", "name", "parent", "start", "end"}


def test_accounting_flags_spans_that_miss_the_wall():
    def op(label, wall, span, children):
        return {"label": label, "wall_s": wall, "span_s": span, "children_s": children}

    reps = [{"ops": [op("train", 10.0, 9.999, 9.5), op("eval", 2.0, 1.5, 1.0),
                     op("itq", 1.0, 1.0, 1.2), {"label": "train", "wall_s": 3.0, "rc": 0}]}]
    rows, failures = run_module.accounting(reps)
    assert rows["train"] == [10.0, 9.999, 9.5]  # the untraced call is not counted
    assert len(failures) == 2
    assert failures[0].startswith("traced eval") and failures[1].startswith("traced itq")


def test_without_program_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "knn", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ranking_oracle_breaks_ties_by_id():
    db = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0],
                   [0, 1, 0, 0], [0, 0, 0, 0]], dtype=np.uint8)
    ids, dist = oracle.ranking(db, np.zeros(4, dtype=np.uint8))
    assert ids.tolist() == [0, 5, 2, 3, 4, 1]
    assert dist.tolist() == [0, 0, 1, 1, 1, 2]
    ids, _ = oracle.ranking(db, np.zeros(4, dtype=np.uint8), k=3)
    assert ids.tolist() == [0, 5, 2]


def test_ranking_oracle_on_packed_codes():
    # bits 0..9, LSB first: code 0 = bit 0 set, code 1 = bits 0 and 9 set.
    packed = np.array([[0b00000001, 0], [0b00000001, 0b10], [0, 0]], dtype=np.uint8)
    bits = oracle.unpack_bits(packed, 10)
    assert bits.shape == (3, 10)
    assert oracle.distances(bits, bits[2]).tolist() == [1, 2, 0]


def test_average_precision_by_hand():
    # relevant at ranks 1, 3, 4: (1/1 + 2/3 + 3/4) / 3
    assert oracle.average_precision([7, 2, 7, 7, 2], 7) == pytest.approx((1 + 2 / 3 + 3 / 4) / 3)
    assert oracle.average_precision([2, 2], 7) is None


def test_mean_average_precision_with_ties():
    # Every database code is at distance 0, so the ranking is by id alone:
    # labels 1, 0, 1 -> AP of a class-1 query is (1 + 2/3) / 2.
    db = np.zeros((3, 2), dtype=np.uint8)
    value = oracle.mean_average_precision(db, np.array([1, 0, 1]),
                                          np.zeros((2, 2), dtype=np.uint8), np.array([1, 5]))
    assert value == pytest.approx((1 + 2 / 3) / 2)


def test_library_rankings_checked_against_oracle():
    db = np.array([[0, 0], [1, 0], [0, 0]], dtype=np.uint8)
    labels = np.array([1, 0, 1])
    query = np.zeros((1, 2), dtype=np.uint8)

    def mismatches(ids, dists, ap):
        result = {"library_results": {"ids": np.array([ids]), "dists": np.array([dists]),
                                      "ap": np.array([ap])}}
        return workloads.ranking_mismatches("q", result, db, labels, query, np.array([1]))

    assert mismatches([0, 2, 1], [0, 0, 1], 1.0) == []
    assert len(mismatches([2, 0, 1], [0, 0, 1], 1.0)) == 1  # tie broken against the id
    assert len(mismatches([0, 2, 1], [0, 0, 1], 0.75)) == 1


def test_tail_is_highest_sample_with_ten_beyond():
    assert workloads.tail_index(100) == 89
    assert workloads.tail_index(200) == 189
    assert workloads.tail_index(5) == 4
    p50, tail, label = workloads.latency([i / 1000 for i in range(1, 101)])
    assert tail == pytest.approx(90.0) and label == "p90"
    assert p50 == pytest.approx(50.5)


@pytest.mark.parametrize("make", [
    lambda s: gen.class_mixture(s, 50, 10, 8, 3),
    lambda s: gen.clustered_codes(s, 300, 20, 64, 5, 0.1),
    lambda s: gen.labelled_codes(s, 300, 20, 32, 4, 0.25),
])
def test_generators_reproducible_from_seed(make):
    a, b, c = make(11), make(11), make(12)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_noisy_codes_flip_rate_and_padding():
    rng = np.random.default_rng(0)
    centres = np.zeros((1, 12), dtype=np.uint8)
    packed = gen.noisy_codes(rng, centres, np.zeros(20000, dtype=np.int64), 0.25)
    bits = oracle.unpack_bits(packed, 12)
    assert abs(bits.mean() - 0.25) < 0.01
    assert not np.any(packed[:, 1] >> 4)  # pad bits 12..15 stay zero


def test_tracer_wraps_every_binding_and_restores():
    import hashnet
    import hashnet.cli

    originals = (hashnet.network.forward, hashnet.trainer.forward, hashnet.cli.search)
    tracer = spans.Tracer()
    tracer.install(hashnet)
    try:
        assert hashnet.trainer.forward is not originals[1]
        assert hashnet.network.forward is hashnet.trainer.forward
        assert hashnet.cli.search is hashnet.index.search
        assert hashnet.cli.search.__wrapped__ is originals[2]
    finally:
        tracer.restore()
    assert (hashnet.network.forward, hashnet.trainer.forward, hashnet.cli.search) == originals


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["cli.eval", None, 0.0, 10.0], ["index.search", 0, 1.0, 4.0],
                    ["index.search", 0, 5.0, 6.0], ["formats.read_codes", 0, 6.0, 6.5]]
    out, _ = tracer.summary()
    assert out["cli.eval"]["self_s"] == pytest.approx(5.5)
    assert out["index.search"] == {"self_s": 4.0, "calls": 2, "wall_s": 4.0}


def test_computed_counters():
    from hashnet.index import pack
    from hashnet.network import Layer, NetworkParams

    params = NetworkParams([Layer(np.zeros((3, 5)), np.zeros(3), "identity"),
                            Layer(np.zeros((2, 3)), np.zeros(2), "sigmoid")])
    x = np.zeros((5, 7))
    assert spans._forward_flops({"params": params, "X": x}) == 2 * (15 + 6) * 7
    db = pack(np.ones((70, 4)))  # 9 bytes per code -> two 64-bit words
    assert spans._scan_bytes({"db": db}) == 4 * 16
    assert spans._steps({"sched": types.SimpleNamespace(outer=2, inner=5)}) == 10
