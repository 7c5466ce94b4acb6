import tracemalloc

import numpy as np
import pytest

from hashnet.errors import InvalidInput
from hashnet.numerics import procrustes_rotation
from hashnet.pretrain import _pretrain, init_binary_codes, itq, pca_fit, random_rotation
from hashnet.trainer import LabeledFeatures


def corners(reps=1):
    base = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return np.tile(base, (reps, 1))


def test_pca_axis_aligned_variance():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
    model = pca_fit(x, 1)
    assert np.allclose(np.abs(model.projection), [[1.0, 0.0]], atol=1e-12)
    assert np.allclose(model.mean, [0.0, 0.0], atol=1e-12)
    assert np.allclose(model.bias, [0.0], atol=1e-12)


def test_pca_rank_one_diagonal_data():
    x = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])
    model = pca_fit(x, 1)
    assert np.allclose(np.abs(model.projection), [[1.0, 1.0]] / np.sqrt(2), atol=1e-12)


def test_pca_reconstructs_covariance_and_decorrelates():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 10)) @ rng.standard_normal((10, 10))
    model = pca_fit(x, 10)
    centered = x - model.mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    projected = centered @ model.projection.T
    proj_cov = projected.T @ projected / (x.shape[0] - 1)
    recon = (model.projection.T * np.diag(proj_cov)) @ model.projection
    assert np.max(np.abs(cov - recon)) <= 1e-9
    off_diag = proj_cov - np.diag(np.diag(proj_cov))
    assert np.max(np.abs(off_diag)) <= 1e-8 * np.max(np.abs(proj_cov))


@pytest.mark.parametrize("seed", range(5))
def test_pca_invariants(seed):
    rng = np.random.default_rng(seed)
    n, d, p = 50, 8, int(rng.integers(1, 9))
    x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d)
    model = pca_fit(x, p)
    assert np.max(np.abs(model.projection @ model.projection.T - np.eye(p))) <= 1e-8
    projected = (x - model.mean) @ model.projection.T
    # Components come in order of descending variance.
    assert np.all(np.diff(projected.var(axis=0, ddof=1)) <= 1e-12)
    assert np.max(np.abs(projected.mean(axis=0))) <= 1e-10
    # The bias is minus the projected mean, by construction.
    assert np.array_equal(model.projection @ model.mean + model.bias, np.zeros(p))


def test_pca_dr_layer_maps_mean_to_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 6)) + 5.0
    model = pca_fit(x, 4)
    layer = model.dr_layer()
    assert layer.activation == "identity"
    out = layer.weights @ model.mean + layer.bias
    assert np.array_equal(out, np.zeros(4))


def test_pca_rejects_bad_args():
    x = np.zeros((5, 3))
    with pytest.raises(InvalidInput):
        pca_fit(x, 4)
    with pytest.raises(InvalidInput):
        pca_fit(x, 0)
    with pytest.raises(InvalidInput):
        pca_fit(np.zeros((1, 3)), 1)


def test_itq_corner_fixed_point():
    v = corners()
    res = itq(v, iters=1, seed=0, init_rotation=np.eye(2))
    assert np.array_equal(res.rotation, np.eye(2))
    assert res.objective_trace[-1] == 0.0
    assert np.array_equal(res.codes, v.T)


def test_itq_recovers_rotated_corners():
    t = np.pi / 4
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    v = corners(3) @ rot
    res = itq(v, iters=30, seed=4)
    binary = res.codes.T
    identity_obj = float(np.sum((np.where(v >= 0, 1.0, -1.0) - v) ** 2))
    assert res.objective_trace[-1] <= identity_obj
    assert res.objective_trace[-1] == pytest.approx(0.0, abs=1e-18)
    assert np.array_equal(binary, np.where(v @ res.rotation >= 0, 1.0, -1.0))


@pytest.mark.parametrize("seed", range(8))
def test_itq_objective_monotone_and_rotation_orthogonal(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((60, int(rng.integers(2, 9))))
    v -= v.mean(axis=0)
    res = itq(v, iters=25, seed=seed)
    trace = res.objective_trace
    assert np.all(np.diff(trace) <= 1e-9)
    bits = v.shape[1]
    assert np.max(np.abs(res.rotation.T @ res.rotation - np.eye(bits))) <= 1e-8
    assert np.all(np.abs(res.codes) == 1.0)


def test_itq_deterministic_for_fixed_seed():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((40, 4))
    a = itq(v, iters=10, seed=123)
    b = itq(v, iters=10, seed=123)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.objective_trace, b.objective_trace)


@pytest.mark.parametrize("seed", [-1, 0.5, True, None, "0"])
def test_itq_rejects_bad_seed(seed):
    with pytest.raises(InvalidInput):
        itq(corners(3), iters=2, seed=seed)
    with pytest.raises(InvalidInput):
        init_binary_codes(corners(3), 2, seed=seed)


def test_itq_rejects_more_bits_than_samples():
    with pytest.raises(InvalidInput):
        itq(np.zeros((2, 3)), iters=5, seed=0)
    with pytest.raises(InvalidInput):
        itq(np.zeros((4, 2)), iters=0, seed=0)


@pytest.mark.parametrize(
    "projected, init_rotation, message",
    [
        (np.ones(4), None, r"projected data must be 2-d, got shape \(4,\)"),
        (np.where(corners(2) > 0, np.inf, -1.0), None, "non-finite"),
        (corners(2), np.eye(3), "initial rotation must be 2 x 2"),
    ],
    ids=["1d", "non_finite", "rotation_shape"],
)
def test_itq_rejects_malformed_input(projected, init_rotation, message):
    with pytest.raises(InvalidInput, match=message):
        itq(projected, iters=2, seed=0, init_rotation=init_rotation)


def test_init_binary_codes_entries_and_determinism():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 6))
    x[13] = x[7]  # duplicated sample
    codes = init_binary_codes(x, 3, seed=5).codes
    assert codes.shape == (3, 50)
    assert np.all(np.abs(codes) == 1.0)
    assert np.array_equal(codes[:, 13], codes[:, 7])
    again = init_binary_codes(x, 3, seed=5).codes
    assert np.array_equal(codes, again)


def test_init_binary_codes_single_bit_separates_clusters():
    rng = np.random.default_rng(3)
    center = np.full(8, 10.0)
    x = np.vstack([
        center + 0.01 * rng.standard_normal((30, 8)),
        -center + 0.01 * rng.standard_normal((30, 8)),
    ])
    codes = init_binary_codes(x, 1, seed=7).codes
    # Brute-force oracle: the bit must follow the sign of the first
    # principal component projection, up to a global flip.
    model = pca_fit(x, 1)
    proj_sign = np.where((x - model.mean) @ model.projection.T >= 0, 1.0, -1.0)[:, 0]
    assert np.array_equal(codes[0], proj_sign) or np.array_equal(codes[0], -proj_sign)
    assert len(set(codes[0, :30])) == 1
    assert codes[0, 0] != codes[0, 30]


def test_init_binary_codes_rejects_small_n():
    with pytest.raises(InvalidInput):
        init_binary_codes(np.zeros((3, 8)), 4, seed=0)


def test_leading_components_equal_separate_fits():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((200, 12)) @ rng.standard_normal((12, 12))
    for p in range(1, 13):
        for bits in (1, 4, 12):
            got, projected = _pretrain(x, p, bits)
            want = pca_fit(x, p)
            assert got.projection.tobytes() == want.projection.tobytes()
            assert got.projection.flags.c_contiguous and got.projection.shape == (p, 12)
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()
            assert got.transform(x).tobytes() == want.transform(x).tobytes()
            assert projected.tobytes() == pca_fit(x, bits).transform(x).tobytes()
    for bad in (0, 13):
        with pytest.raises(InvalidInput):
            _pretrain(x, bad, 4)


def unshared_itq_loop(v, iters, rotation):
    """ITQ as it was written before the product v @ rotation was carried to
    the next iteration."""
    trace = np.empty(iters)
    for i in range(iters):
        codes = np.where(v @ rotation >= 0, 1.0, -1.0)
        rotation = procrustes_rotation(v.T @ codes)
        resid = codes - v @ rotation
        trace[i] = float(np.sum(resid * resid))
    return rotation, codes.T, trace


@pytest.mark.parametrize("seed", range(6))
def test_itq_matches_unshared_loop(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((120, int(rng.integers(1, 17))))
    v -= v.mean(axis=0)
    iters = int(rng.integers(1, 30))
    res = itq(v, iters=iters, seed=seed)
    rotation, codes, trace = unshared_itq_loop(v, iters, random_rotation(v.shape[1], seed))
    assert res.rotation.tobytes() == rotation.tobytes()
    assert res.codes.tobytes() == codes.tobytes()
    assert res.objective_trace.tobytes() == trace.tobytes()


FLOAT32_SHAPES = [(2, 1), (3, 2), (7, 5), (33, 4), (200, 16), (513, 9)]


@pytest.mark.parametrize("n, d", FLOAT32_SHAPES)
def test_float32_features_give_the_bytes_of_their_float64_widening(n, d):
    rng = np.random.default_rng(n * 100 + d)
    x32 = (rng.standard_normal((n, d)) * rng.uniform(0.1, 50, size=d) + 3.0).astype(np.float32)
    x64 = x32.astype(np.float64)
    for p in range(1, d + 1):
        got, want = pca_fit(x32, p), pca_fit(x64, p)
        for name in ("projection", "mean"):
            assert getattr(got, name).dtype == np.float64
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.transform(x32).tobytes() == want.transform(x64).tobytes()
    for bits in range(1, min(n, d) + 1):
        got, want = init_binary_codes(x32, bits, seed=bits), init_binary_codes(x64, bits, seed=bits)
        assert got.codes.tobytes() == want.codes.tobytes()
        assert got.rotation.tobytes() == want.rotation.tobytes()
        assert got.objective_trace.tobytes() == want.objective_trace.tobytes()


def peak_allocation(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_float32_features_are_never_widened_whole():
    # Widening first would hold a float64 copy (2x the float32 payload) and
    # the float64 centered matrix (2x) at once: 4x and more.  Used as they
    # are, the centered matrix alone is the largest allocation.
    n, d, bits = 10_000, 128, 8
    x = np.random.default_rng(1).standard_normal((n, d)).astype(np.float32)
    payload = x.nbytes
    _, peak = peak_allocation(lambda: pca_fit(x, d))
    assert peak <= 2.5 * payload
    _, peak = peak_allocation(lambda: init_binary_codes(x, bits, seed=0))
    assert peak <= 2.5 * payload
    data, peak = peak_allocation(lambda: LabeledFeatures(x, np.arange(n) % 3))
    assert data.features is x
    assert peak <= 0.5 * payload  # the finiteness mask
