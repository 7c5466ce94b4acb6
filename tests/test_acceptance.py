"""Acceptance suite: one test per exit criterion, each printing a PASS or
FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Published absolute benchmark numbers for this family of methods depend on
a large pretrained CNN feature extractor, which is outside this package's
ingestion boundary; they are deliberately not asserted anywhere.  The
property checks below are the acceptance gate instead.
"""

import contextlib
import gzip
import io
import os
import time
from pathlib import Path

import numpy as np
import pytest

from hashnet.cli import main
from hashnet.errors import InvalidInput
from hashnet.formats import write_features, write_labels
from hashnet.hashloss import Hyperparams, loss_grad, loss_terms
from hashnet.index import binarize, mean_average_precision, pack, search
from hashnet.network import Layer, NetworkParams, SgdConfig, backward, forward
from hashnet.pretrain import itq, pca_fit
from hashnet.trainer import (
    LabeledFeatures,
    default_schedule,
    quantization_gap,
    train,
    update_codes,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


# --- shared constructions ---------------------------------------------------


def class_mixture(seed, n_train=2000, n_query=500, dim=32, classes=5, separation=6.0):
    """Gaussian class mixture with unit noise; centers rescaled so the
    minimum pairwise separation is exactly `separation` noise units."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, dim))
    gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    centers *= separation / gaps.min()

    def draw(count):
        labels = rng.integers(0, classes, size=count)
        return centers[labels] + rng.standard_normal((count, dim)), labels

    return draw(n_train), draw(n_query)


def retrieval_map(db_codes, query_codes, db_labels, query_labels):
    db = pack(db_codes)
    rankings = [
        search(db, pack(query_codes[:, [i]]).payload, db.n)
        for i in range(query_codes.shape[1])
    ]
    return mean_average_precision(rankings, query_labels, db_labels)


def fd_loss_grad(outputs, codes, labels, hp, step=1e-5):
    grad = np.zeros_like(outputs)
    for idx in np.ndindex(outputs.shape):
        up = outputs.copy()
        up[idx] += step
        down = outputs.copy()
        down[idx] -= step
        hi, lo = sum(loss_terms(up, codes, labels, hp)), sum(loss_terms(down, codes, labels, hp))
        grad[idx] = (hi - lo) / (2 * step)
    return grad


def fd_network_grads(params, x, codes, labels, hp, step=1e-5):
    def value():
        out, _ = forward(params, x)
        return sum(loss_terms(out, codes, labels, hp))

    grads = []
    for layer in params.layers:
        dw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + step
            hi = value()
            layer.weights[idx] = orig - step
            lo = value()
            layer.weights[idx] = orig
            dw[idx] = (hi - lo) / (2 * step)
        db = np.zeros_like(layer.bias)
        for i in range(layer.bias.size):
            orig = layer.bias[i]
            layer.bias[i] = orig + step
            hi = value()
            layer.bias[i] = orig - step
            lo = value()
            layer.bias[i] = orig
            db[i] = (hi - lo) / (2 * step)
        grads.append((dw, db))
    return grads


# --- criteria ---------------------------------------------------------------


def test_benchmark_figures_are_reference_only():
    # Absolute published retrieval numbers require the out-of-scope CNN
    # feature pipeline; nothing in this package asserts them.  This suite
    # substitutes the property checks below.
    report("benchmark-figures-reference-only", True, "not asserted at desk scale")


def test_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_loss = 0.0
    worst_net = 0.0
    for _ in range(100):
        bits = int(rng.integers(1, 9))
        m = int(rng.integers(1, 17))
        hp = Hyperparams(*rng.uniform(0, 1, size=4))
        outputs = rng.uniform(-0.95, 0.95, size=(bits, m))
        codes = np.where(rng.standard_normal((bits, m)) >= 0, 1.0, -1.0)
        labels = rng.integers(0, 3, size=m)
        got = loss_grad(outputs, codes, labels, hp)
        worst_loss = max(worst_loss, float(np.max(np.abs(got - fd_loss_grad(outputs, codes, labels, hp)))))

        in_dim = int(rng.integers(1, 9))
        hidden = int(rng.integers(1, 9))
        bound1 = np.sqrt(6.0 / (in_dim + hidden))
        bound2 = np.sqrt(6.0 / (hidden + bits))
        params = NetworkParams(
            [
                Layer(rng.uniform(-bound1, bound1, (hidden, in_dim)),
                      rng.uniform(-0.1, 0.1, hidden), "sigmoid"),
                Layer(rng.uniform(-bound2, bound2, (bits, hidden)),
                      rng.uniform(-0.1, 0.1, bits), "scaled_sigmoid"),
            ]
        )
        x = rng.standard_normal((in_dim, m))
        out, tape = forward(params, x)
        analytic = backward(params, tape, loss_grad(out, codes, labels, hp))
        numeric = fd_network_grads(params, x, codes, labels, hp)
        for (dw, db), (ew, eb) in zip(analytic, numeric):
            worst_net = max(worst_net, float(np.max(np.abs(dw - ew))), float(np.max(np.abs(db - eb))))
    elapsed = time.perf_counter() - started
    ok = worst_loss <= 1e-6 and worst_net <= 1e-6 and elapsed < 30.0
    report(
        "gradient-correctness",
        ok,
        f"loss fd err {worst_loss:.2e}, network fd err {worst_net:.2e}, {elapsed:.1f}s",
    )


def test_constructed_minimum():
    outputs = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    labels = [0, 0, 1, 1]
    hp = Hyperparams(alpha=0.37, beta=1.1, theta=0.0, gamma=2.4)
    value = sum(loss_terms(outputs, outputs.copy(), labels, hp))
    grad_max = float(np.max(np.abs(loss_grad(outputs, outputs.copy(), labels, hp))))
    ok = value == 0.0 and grad_max <= 1e-12
    report("constructed-minimum", ok, f"loss {value!r}, max grad {grad_max:.2e}")


def test_itq_properties():
    started = time.perf_counter()
    monotone = True
    orthogonal = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 200))
        bits = int(rng.integers(2, 12))
        v = rng.standard_normal((n, bits)) * rng.uniform(0.5, 2.0, size=bits)
        v -= v.mean(axis=0)
        res = itq(v, iters=50, seed=seed)
        monotone &= bool(np.all(np.diff(res.objective_trace) <= 1e-9))
        orthogonal &= (
            float(np.max(np.abs(res.rotation.T @ res.rotation - np.eye(bits)))) <= 1e-8
        )
    corners = np.tile(
        np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]), (5, 1)
    )
    corner_obj = float(itq(corners, iters=1, seed=0, init_rotation=np.eye(2)).objective_trace[-1])
    elapsed = time.perf_counter() - started
    ok = monotone and orthogonal and corner_obj == 0.0 and elapsed < 10.0
    report(
        "itq-properties",
        ok,
        f"monotone {monotone}, orthogonal {orthogonal}, corner obj {corner_obj!r}, {elapsed:.1f}s",
    )


def test_hamming_and_map_match_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    n, bits, n_queries = 2000, 32, 50
    db_codes = np.where(rng.standard_normal((bits, n)) >= 0, 1.0, -1.0)
    query_ids = rng.integers(0, n, size=n_queries)
    query_codes = db_codes[:, query_ids].copy()
    flip = rng.integers(0, 2, size=query_codes.shape).astype(bool)
    query_codes[flip] *= -1.0
    db_labels = rng.integers(0, 5, size=n)
    query_labels = rng.integers(0, 5, size=n_queries)

    db = pack(db_codes)
    distances_equal = True
    rankings = []
    oracle_aps = []
    for qi in range(n_queries):
        ranked = search(db, pack(query_codes[:, [qi]]).payload, n)
        naive = np.sum(db_codes != query_codes[:, [qi]], axis=0)
        distances_equal &= all(dist == naive[j] for j, dist in ranked)
        rankings.append(ranked)
        order = sorted(range(n), key=lambda j: (naive[j], j))
        rel = [db_labels[j] == query_labels[qi] for j in order]
        total = sum(rel)
        if total:
            hits, ap = 0, 0.0
            for rank, r in enumerate(rel, start=1):
                if r:
                    hits += 1
                    ap += hits / rank
            oracle_aps.append(ap / total)
    got_map = mean_average_precision(rankings, query_labels, db_labels)
    oracle_map = float(np.mean(oracle_aps))
    elapsed = time.perf_counter() - started
    ok = distances_equal and abs(got_map - oracle_map) <= 1e-12 and elapsed < 10.0
    report(
        "hamming-map-oracle-equivalence",
        ok,
        f"distances exact {distances_equal}, |mAP delta| {abs(got_map - oracle_map):.1e}, {elapsed:.1f}s",
    )


def test_desk_scale_retrieval():
    started = time.perf_counter()
    (train_x, train_y), (query_x, query_y) = class_mixture(seed=11)
    data = LabeledFeatures(train_x, train_y)
    bits = 16

    pca = pca_fit(train_x, bits)
    baseline = itq(pca.transform(train_x), iters=50, seed=7)
    itq_query = binarize(pca.transform(query_x) @ baseline.rotation).T
    itq_map = retrieval_map(baseline.codes, itq_query, train_y, query_y)

    sched = default_schedule(data.n, 256, seed=1)
    hp = Hyperparams(alpha=0.1)  # similarity weight from the top of its tuning range
    sgd = SgdConfig(learning_rate=20.0, weight_decay=0.0, momentum=0.9)
    state = train(data, bits, hp, sched, sgd)
    trained_query = update_codes(state.params, query_x, sched.batch)
    trained_map = retrieval_map(state.codes, trained_query, train_y, query_y)
    gap = quantization_gap(state.params, train_x, state.codes)
    elapsed = time.perf_counter() - started

    ok = (
        trained_map >= 0.95
        and trained_map - itq_map >= 0.02
        and gap <= 0.05
        and elapsed < 300.0
    )
    report(
        "desk-scale-retrieval",
        ok,
        f"trained mAP {trained_map:.4f}, itq mAP {itq_map:.4f}, gap {gap:.4f}, {elapsed:.1f}s",
    )


def _read_idx(path: Path) -> np.ndarray:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as f:
        blob = f.read()
    kind, ndim = blob[2], blob[3]
    dims = [int.from_bytes(blob[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    if kind != 0x08:
        raise InvalidInput(f"{path}: unsupported idx payload type {kind:#x}")
    return np.frombuffer(blob, dtype=np.uint8, offset=4 + 4 * ndim).reshape(dims)


def _find_mnist():
    names = {
        "train_x": "train-images-idx3-ubyte",
        "train_y": "train-labels-idx1-ubyte",
        "test_x": "t10k-images-idx3-ubyte",
        "test_y": "t10k-labels-idx1-ubyte",
    }
    roots = [Path(p) for p in (os.environ.get("MNIST_DIR"),) if p]
    roots.append(Path(__file__).parent / "data" / "mnist")
    for root in roots:
        found = {}
        for key, stem in names.items():
            for candidate in (root / stem, root / (stem + ".gz")):
                if candidate.exists():
                    found[key] = candidate
                    break
        if len(found) == len(names):
            return found
    return None


def test_real_data_smoke_run():
    paths = _find_mnist()
    if paths is None:
        pytest.skip("MNIST idx files not found (set MNIST_DIR to enable)")
    started = time.perf_counter()
    train_x = _read_idx(paths["train_x"]).reshape(-1, 784).astype(np.float64) / 255.0
    train_y = _read_idx(paths["train_y"]).astype(np.int64)
    test_x = _read_idx(paths["test_x"]).reshape(-1, 784).astype(np.float64) / 255.0
    test_y = _read_idx(paths["test_y"]).astype(np.int64)
    rng = np.random.default_rng(5)
    keep = rng.permutation(train_x.shape[0])[:10000]
    qkeep = rng.permutation(test_x.shape[0])[:1000]
    train_x, train_y = train_x[keep], train_y[keep]
    query_x, query_y = test_x[qkeep], test_y[qkeep]
    bits = 16

    pca = pca_fit(train_x, bits)
    baseline = itq(pca.transform(train_x), iters=50, seed=7)
    itq_query = binarize(pca.transform(query_x) @ baseline.rotation).T
    itq_map = retrieval_map(baseline.codes, itq_query, train_y, query_y)

    data = LabeledFeatures(train_x, train_y)
    sched = default_schedule(data.n, 256, seed=1)
    state = train(
        data,
        bits,
        Hyperparams(alpha=0.1),
        sched,
        SgdConfig(learning_rate=20.0, weight_decay=0.0, momentum=0.9),
        dr_dim=64,
    )
    trained_query = update_codes(state.params, query_x, sched.batch)
    trained_map = retrieval_map(state.codes, trained_query, train_y, query_y)
    elapsed = time.perf_counter() - started
    ok = trained_map - itq_map >= 0.05
    report(
        "real-data-smoke",
        ok,
        f"trained mAP {trained_map:.4f}, itq mAP {itq_map:.4f}, {elapsed:.0f}s",
    )


def test_cli_artifacts_are_deterministic(tmp_path):
    rng = np.random.default_rng(21)
    n, dim = 120, 8
    half = n // 2
    center = np.zeros(dim)
    center[0] = 3.0
    feats = np.vstack(
        [center + rng.standard_normal((half, dim)), -center + rng.standard_normal((half, dim))]
    ).astype(np.float32).astype(np.float64)
    labels = np.array([0] * half + [1] * half)
    fpath, lpath = tmp_path / "x.hsf", tmp_path / "y.hsl"
    write_features(fpath, feats)
    write_labels(lpath, labels)

    artifacts = []
    for tag in ("a", "b"):
        model = tmp_path / f"model-{tag}.json"
        log = tmp_path / f"log-{tag}.txt"
        codes = tmp_path / f"codes-{tag}.hsb"
        itq_codes = tmp_path / f"itq-{tag}.hsb"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(
                ["train", str(fpath), str(lpath), "-o", str(model),
                 "--bits", "8", "--batch", "32", "--outer", "2", "--seed", "13",
                 "--log", str(log)]
            ) == 0
            assert main(["encode", str(model), str(fpath), "-o", str(codes)]) == 0
            assert main(["itq", str(fpath), "-o", str(itq_codes), "--bits", "8", "--seed", "13"]) == 0
        artifacts.append(
            (model.read_bytes(), log.read_bytes(), codes.read_bytes(), itq_codes.read_bytes())
        )
    ok = artifacts[0] == artifacts[1]
    report("cli-determinism", ok, "model, log, codes, itq codes byte-identical")


def test_schedule_arithmetic():
    sched = default_schedule(50000, 256)
    ok = sched.outer == 5 and sched.inner == 782
    report("schedule-arithmetic", ok, f"outer {sched.outer}, inner {sched.inner}")
