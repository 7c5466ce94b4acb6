import numpy as np
import pytest

from hashnet.errors import InvalidInput
from hashnet.pretrain import init_binary_codes, itq, pca_fit


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
    recon = (model.projection.T * model.eigenvalues) @ model.projection
    assert np.max(np.abs(cov - recon)) <= 1e-9
    projected = centered @ model.projection.T
    proj_cov = projected.T @ projected / (x.shape[0] - 1)
    off_diag = proj_cov - np.diag(np.diag(proj_cov))
    assert np.max(np.abs(off_diag)) <= 1e-8 * np.max(np.abs(proj_cov))


@pytest.mark.parametrize("seed", range(5))
def test_pca_invariants(seed):
    rng = np.random.default_rng(seed)
    n, d, p = 50, 8, int(rng.integers(1, 9))
    x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d)
    model = pca_fit(x, p)
    assert np.max(np.abs(model.projection @ model.projection.T - np.eye(p))) <= 1e-8
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0.0)
    projected = (x - model.mean) @ model.projection.T
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


def test_itq_rejects_more_bits_than_samples():
    with pytest.raises(InvalidInput):
        itq(np.zeros((2, 3)), iters=5, seed=0)
    with pytest.raises(InvalidInput):
        itq(np.zeros((4, 2)), iters=0, seed=0)


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
